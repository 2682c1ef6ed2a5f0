import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from raptorkit.degrees import LdpcEnsemble
from raptorkit.jfunction import j_of_mean, mean_of_ic
from raptorkit.transfer import (
    TransferFileError,
    TransferFunction,
    ldpc_de_converges,
    load_tabulated,
    save_tabulated,
    threshold_xp,
)

# pinned by the straight-line quadrature composition in oracles.py
T_3_60_AT_09 = 0.018633581477548233
XP_3_60 = 0.96095  # oracle bisection at tol 1e-5

# x_p of the plain bisection: one scalar DE run of up to 2000 iterations per
# midpoint.  The irregular rows sum over several degrees per stage.
BISECTION_XP = [
    ({3: 1.0}, {6: 1.0}, 1e-4, 0.57086181640625),
    ({3: 1.0}, {30: 1.0}, 1e-4, 0.92047119140625),
    ({3: 1.0}, {60: 1.0}, 1e-4, 0.9609375),
    ({3: 1.0}, {60: 1.0}, 1e-5, 0.9609375),
    ({3: 1.0}, {100: 1.0}, 1e-3, 0.9775390625),
    ({30: 1.0}, {2: 1.0}, 1e-4, 6.103515625e-05),
    ({2: 0.25, 3: 0.75}, {30: 1.0}, 1e-4, 0.93212890625),
    ({3: 1.0}, {29: 0.5, 30: 0.5}, 1e-4, 0.9190673828125),
    ({4: 1.0}, {40: 1.0}, 1e-4, 0.92144775390625),
]

# Small ensembles for the property tests, regular and irregular.
DE_ENSEMBLES = [
    LdpcEnsemble(var_edge={3: 1.0}, check_edge={6: 1.0}),
    LdpcEnsemble(var_edge={3: 1.0}, check_edge={30: 1.0}),
    LdpcEnsemble(var_edge={2: 0.25, 3: 0.75}, check_edge={30: 1.0}),
    LdpcEnsemble(var_edge={3: 1.0}, check_edge={29: 0.5, 30: 0.5}),
]


def test_null_transfer_is_zero_everywhere():
    t = TransferFunction.null()
    xs = np.linspace(0.0, 1.0, 50)
    assert np.all(t.evaluate(xs) == 0.0)
    assert t.evaluate(1.0) == 0.0


def test_analytic_endpoint_is_one(transfer_3_60):
    assert transfer_3_60.evaluate(1.0) == pytest.approx(1.0, abs=1e-9)
    assert transfer_3_60.evaluate(0.0) == pytest.approx(0.0, abs=1e-9)


def test_analytic_matches_composition_oracle(transfer_3_60):
    assert transfer_3_60.evaluate(0.9) == pytest.approx(T_3_60_AT_09, abs=1e-6)


def test_analytic_monotone_on_grid(transfer_3_60):
    xs = np.linspace(0.0, 1.0, 200)
    vals = transfer_3_60.evaluate(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_domain_validation(transfer_3_60):
    with pytest.raises(ValueError):
        transfer_3_60.evaluate(-0.01)
    with pytest.raises(ValueError):
        transfer_3_60.evaluate(1.01)


class TestThreshold:
    def test_regular_3_60_matches_de_oracle(self, transfer_3_60, reg_3_60):
        xp = threshold_xp(transfer_3_60, reg_3_60, tol=1e-4)
        assert xp.x_p == pytest.approx(XP_3_60, abs=2e-3)

    def test_repetition_like_threshold_near_zero(self):
        ens = LdpcEnsemble(var_edge={30: 1.0}, check_edge={2: 1.0})
        t = TransferFunction.analytic_ldpc(ens)
        assert threshold_xp(t, ens, tol=1e-4).x_p < 0.01

    def test_high_rate_ensemble_fails_at_half(self):
        # (3,100) does not converge from a-priori IC 0.5, so x_p > 0.5
        ens = LdpcEnsemble.regular(3, 100)
        t = TransferFunction.analytic_ldpc(ens)
        assert not oracles.ldpc_de_converges({3: 1.0}, {100: 1.0}, 0.5)
        assert threshold_xp(t, ens, tol=1e-3).x_p > 0.5

    @pytest.mark.parametrize("lam, rho, tol, x_p", BISECTION_XP)
    def test_equals_plain_bisection_bit_for_bit(self, lam, rho, tol, x_p):
        ens = LdpcEnsemble(var_edge=lam, check_edge=rho)
        assert threshold_xp(TransferFunction.analytic_ldpc(ens), ens, tol=tol).x_p == x_p

    def test_requires_analytic_kind(self, reg_3_60):
        with pytest.raises(ValueError):
            threshold_xp(TransferFunction.null(), reg_3_60)
        t = TransferFunction.analytic_ldpc(reg_3_60)
        with pytest.raises(ValueError):
            threshold_xp(t, reg_3_60, tol=0.5)


ics = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestDensityEvolution:
    @settings(max_examples=20, deadline=None)
    @given(ens=st.sampled_from(DE_ENSEMBLES), xs=st.lists(ics, min_size=1, max_size=6))
    def test_lanes_equal_scalar_runs(self, ens, xs):
        lanes = ldpc_de_converges(ens, np.array(xs))
        assert lanes.dtype == bool and lanes.shape == (len(xs),)
        for x, verdict in zip(xs, lanes):
            scalar = ldpc_de_converges(ens, x)
            assert type(scalar) is bool
            assert scalar == verdict

    @settings(max_examples=20, deadline=None)
    @given(ens=st.sampled_from(DE_ENSEMBLES), xs=st.lists(ics, min_size=2, max_size=12))
    def test_verdicts_monotone_in_apriori_ic(self, ens, xs):
        verdicts = ldpc_de_converges(ens, np.sort(xs))
        assert np.all(np.diff(verdicts.astype(int)) >= 0)

    @pytest.mark.parametrize("ens, x", [
        (LdpcEnsemble.regular(3, 6), 0.3),
        (LdpcEnsemble.regular(3, 60), 0.9),
        (LdpcEnsemble(var_edge={2: 0.25, 3: 0.75}, check_edge={30: 1.0}), 0.93),
    ])
    def test_stall_exit_matches_full_budget(self, ens, x):
        # The plain DE loop: every one of the 2000 iterations, no early exit.
        lam_deg, lam_w = (np.array(v, dtype=float) for v in zip(*sorted(ens.var_edge.items())))
        rho_deg, rho_w = (np.array(v, dtype=float) for v in zip(*sorted(ens.check_edge.items())))
        m_a = mean_of_ic(x, clamp=True)
        y, converged, stalled = 0.0, False, False
        for _ in range(2000):
            v = float(np.dot(lam_w, j_of_mean((lam_deg - 1.0) * mean_of_ic(y, clamp=True) + m_a)))
            if v >= 1.0 - 1e-6:
                converged = True
                break
            s = float(np.dot(rho_w, j_of_mean((rho_deg - 1.0) * mean_of_ic(1.0 - v, clamp=True))))
            y_next = min(max(1.0 - s, 0.0), 1.0)
            stalled |= y_next == y
            y = y_next
        assert stalled  # the early exit is taken at this point
        assert ldpc_de_converges(ens, x) is converged


class TestTabulated:
    def test_identity_endpoints(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 0\n1 1\n")
        t = load_tabulated(path)
        assert t.evaluate(0.0) == 0.0
        assert t.evaluate(1.0) == 1.0
        assert 0.0 < t.evaluate(0.5) < 1.0

    def test_endpoint_appended(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 0\n0.5 0.3\n")
        t = load_tabulated(path)
        assert t.evaluate(1.0) == pytest.approx(1.0)

    def test_null_like_table_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 0\n1 0\n")
        with pytest.raises(TransferFileError, match="T\\(1\\)"):
            load_tabulated(path)

    def test_non_monotone_x_names_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 0\n0.6 0.2\n0.5 0.4\n1 1\n")
        with pytest.raises(TransferFileError, match=":3"):
            load_tabulated(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 0\n0.5 1.2\n1 1\n")
        with pytest.raises(TransferFileError, match=":2"):
            load_tabulated(path)

    def test_must_start_at_zero(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0.1 0\n1 1\n")
        with pytest.raises(TransferFileError, match="start at x = 0"):
            load_tabulated(path)

    def test_tabulated_tracks_analytic(self, tmp_path, transfer_3_60):
        path = tmp_path / "t360.txt"
        save_tabulated(transfer_3_60, path, points=101)
        tab = load_tabulated(path)
        off_grid = np.linspace(0.003, 0.997, 173)
        diff = np.abs(tab.evaluate(off_grid) - transfer_3_60.evaluate(off_grid))
        assert float(diff.max()) < 1e-3

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1.0),
                                    st.floats(min_value=0.0, max_value=1.0)),
                          min_size=1, max_size=40))
    def test_passes_through_every_knot(self, steps):
        # monotone tables from (0, 0) to (1, 1), T(1) == 1 included
        dx, dt = (np.array(v) for v in zip(*steps))
        xs = np.concatenate(([0.0], np.cumsum(dx)))
        ts = np.concatenate(([0.0], np.cumsum(dt)))
        xs, ts = xs / xs[-1], ts / max(ts[-1], 1e-300)
        xs[-1] = ts[-1] = 1.0
        assert np.all(np.diff(xs) > 0.0)
        t = TransferFunction.tabulated(xs, ts)
        assert np.array_equal(t.evaluate(xs), ts)
        assert t.evaluate(1.0) == 1.0

    @pytest.mark.parametrize("xs, ts", [
        ([0.0], [0.0]),                            # fewer than two knots
        ([0.0, 0.5, 1.0], [0.0, 1.0]),             # unequal lengths
        ([0.0, float("nan"), 1.0], [0.0, 0.5, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, float("inf"), 1.0]),
        ([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.4, 1.0]),  # x not strictly increasing
        ([0.0, 0.6, 0.5, 1.0], [0.0, 0.2, 0.4, 1.0]),
        ([0.1, 0.5, 1.0], [0.0, 0.5, 1.0]),        # does not start at 0
        ([0.0, 0.5, 0.9], [0.0, 0.5, 1.0]),        # does not end at 1
    ])
    def test_rejects_bad_knots(self, xs, ts):
        with pytest.raises(ValueError):
            TransferFunction.tabulated(xs, ts)

    def test_cannot_save_null(self, tmp_path):
        with pytest.raises(ValueError):
            save_tabulated(TransferFunction.null(), tmp_path / "x.txt")
