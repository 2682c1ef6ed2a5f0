"""Command-line front-end.

Subcommands:
  design    optimize an output degree distribution (config -> distribution + report)
  analyze   trajectory, threshold, and design bounds for a distribution
  simulate  BER-versus-overhead campaign (config -> CSV)
  transfer  tabulate the analytic transfer of an LDPC precode to a file

Config files are INI-style key=value sections; see the README for the
schema.  Exit code 0 on success, 1 with a diagnostic line on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from contextlib import contextmanager

from .degrees import LdpcEnsemble, read_distribution, write_distribution
from .design import ConfigError, DesignConfig, sweep_alpha
from .evolution import alpha_min, delta_max, stability_floor_omega2
from .harness import ExperimentConfig, predict_threshold, run_ber_curve
from .jfunction import channel_from_capacity, channel_from_sigma
from .transfer import (
    KIND_TABULATED,
    TransferFunction,
    load_tabulated,
    save_tabulated,
    threshold_xp,
)


def _load_ini(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return cp


@contextmanager
def _config_value(sec, key: str, default: str | None = None):
    """Yields the text of [sec] key; a missing key, or a ValueError raised
    while the text is parsed, becomes a ConfigError naming the key."""
    text = sec.get(key, default)
    if text is None:
        raise ConfigError(f"[{sec.name}] needs {key}")
    try:
        yield text
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {text!r}: {exc}") from exc


def _parse_weight_list(sec, key: str) -> dict[int, float]:
    out: dict[int, float] = {}
    with _config_value(sec, key) as text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            deg, _, w = item.partition(":")
            out[int(deg)] = float(w)
    return out


def _parse_support(sec, key: str, default: str) -> tuple[int, ...]:
    degs: set[int] = set()
    with _config_value(sec, key, default) as text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "-" in item:
                lo, hi = item.split("-")
                degs.update(range(int(lo), int(hi) + 1))
            else:
                degs.add(int(item))
    return tuple(sorted(degs))


def _parse_floats(sec, key: str, default: str | None = None) -> tuple[float, ...]:
    with _config_value(sec, key, default) as text:
        return tuple(float(v) for v in text.split(",") if v.strip())


def _channel_from(cp: configparser.ConfigParser):
    sec = cp["channel"]
    if "sigma" in sec:
        return channel_from_sigma(sec.getfloat("sigma"))
    if "capacity" in sec:
        return channel_from_capacity(sec.getfloat("capacity"))
    raise ConfigError("[channel] needs sigma or capacity")


def _transfer_from(cp: configparser.ConfigParser):
    """Returns (transfer, ensemble-or-None)."""
    if not cp.has_section("transfer"):
        return TransferFunction.null(), None
    sec = cp["transfer"]
    kind = sec.get("kind", "null").strip()
    if kind == "null":
        return TransferFunction.null(), None
    if kind == "ldpc":
        ens = LdpcEnsemble(var_edge=_parse_weight_list(sec, "lambda"),
                           check_edge=_parse_weight_list(sec, "rho"))
        return TransferFunction.analytic_ldpc(ens), ens
    if kind == "table":
        return load_tabulated(sec.get("path")), None
    raise ConfigError(f"unknown transfer kind {kind!r}")


def _resolve_xp(text: str | None, transfer, ensemble) -> float:
    if text is None or text.strip() == "auto":
        if ensemble is not None:
            return threshold_xp(transfer, ensemble).x_p
        if transfer.kind == KIND_TABULATED:
            raise ConfigError("x_p = auto needs an ldpc transfer; "
                              "give x_p numerically for a tabulated one")
        return 0.0
    return float(text)


def _cmd_design(args) -> int:
    cp = _load_ini(args.config)
    channel = _channel_from(cp)
    transfer, ensemble = _transfer_from(cp)
    sec = cp["design"]
    x_p = _resolve_xp(sec.get("x_p", "auto"), transfer, ensemble)
    delta_text = sec.get("delta", "0.04").strip()
    cfg = DesignConfig(
        channel=channel,
        transfer=transfer,
        x_p=x_p,
        alpha_grid=_parse_floats(sec, "alpha_grid", "21"),
        delta=0.04 if delta_text == "auto" else float(delta_text),
        delta_policy="auto" if delta_text == "auto" else "fixed",
        auto_delta_fraction=sec.getfloat("auto_delta_fraction", 0.95),
        epsilon_start=sec.getfloat("epsilon", 0.005),
        degree_support=_parse_support(sec, "support", "1-100"),
        grid_points=sec.getint("grid_points", 200),
        strict_margin=sec.getfloat("strict_margin", 1e-4),
    )
    sweep = sweep_alpha(cfg)
    best = sweep.best
    write_distribution(best.distribution, args.out)
    report_path = args.report or (str(args.out) + ".report")
    with open(report_path, "w") as fh:
        fh.write(f"channel sigma^2 {channel.sigma2!r} capacity {channel.x0!r}\n")
        fh.write(f"precode threshold x_p {x_p!r}\n")
        fh.write(f"best alpha {best.alpha!r} rate_lt {best.rate_lt!r} "
                 f"verified {best.verified}\n")
        for key, val in sorted(best.constraint_report.items()):
            fh.write(f"  {key} {val!r}\n")
        fh.write("alpha profile:\n")
        for r in sweep.results:
            fh.write(f"  alpha {r.alpha:g} status {r.lp_status} rate "
                     f"{'-' if r.rate_lt is None else repr(r.rate_lt)} verified {r.verified}\n")
    print(f"best alpha {best.alpha:g}: rate_lt {best.rate_lt:.6f} "
          f"(verified: {best.verified}); distribution -> {args.out}, report -> {report_path}")
    return 0


def _cmd_analyze(args) -> int:
    cp = _load_ini(args.config)
    channel = _channel_from(cp)
    transfer, ensemble = _transfer_from(cp)
    sec = cp["analyze"]
    dist = read_distribution(sec.get("distribution"))
    alpha = sec.getfloat("alpha")
    x_p = _resolve_xp(sec.get("x_p", "auto"), transfer, ensemble)
    r_p = sec.getfloat("precode_rate", 1.0 if ensemble is None else ensemble.design_rate)
    pred = predict_threshold(dist, channel, transfer, x_p=x_p, alpha=alpha,
                             precode_rate=r_p,
                             max_iters=sec.getint("max_iters", 5000))
    print(f"capacity {channel.x0:.6f}  x_p {x_p:.6f}  alpha {alpha:g}  rate_lt {pred.rate_lt:.6f}")
    print(f"alpha_min {alpha_min(channel, x_p):.6f}  "
          f"delta_max {delta_max(alpha, channel, x_p):.6f}  "
          f"omega2 floor {stability_floor_omega2(alpha, channel):.6f}")
    if pred.reachable:
        print(f"reachable: yes  x_ext {pred.x_ext_final:.8f}  minimal overhead {pred.epsilon_star:.6f}")
    else:
        print(f"reachable: no  stalled at x_u {pred.stall_point:.8f} "
              f"(x_ext {pred.x_ext_final:.8f} <= x_p {x_p:.6f})")
    return 0


def _cmd_simulate(args) -> int:
    cp = _load_ini(args.config)
    sec = cp["simulate"]
    if cp.has_section("channel"):
        sigma = _channel_from(cp).sigma
    else:
        sigma = sec.getfloat("sigma")
    precode = None
    with _config_value(sec, "precode", "none") as precode_text:
        if precode_text.strip() not in ("", "none"):
            d_v, d_c, n = (int(v) for v in precode_text.split(","))
            precode = (d_v, d_c, n)
    cfg = ExperimentConfig(
        k_info=sec.getint("k_info"),
        distribution=read_distribution(sec.get("distribution")),
        sigma=sigma,
        overheads=_parse_floats(sec, "overheads"),
        trials=sec.getint("trials"),
        schedule=sec.get("schedule", "joint").strip(),
        max_iters=sec.getint("max_iters", 300),
        tandem_precode_iters=sec.getint("tandem_precode_iters", 100),
        precode=precode,
        master_seed=args.seed if args.seed is not None else sec.getint("seed", 0),
        workers=args.workers,
        zero_codeword=sec.get("codeword", "zero").strip() != "random",
    )
    records = run_ber_curve(cfg, csv_path=args.out)
    for rec in records:
        print(rec.csv_row())
    if args.out:
        print(f"csv -> {args.out}", file=sys.stderr)
    return 0


def _cmd_transfer(args) -> int:
    cp = _load_ini(args.config)
    transfer, ensemble = _transfer_from(cp)
    if ensemble is None:
        raise ConfigError("transfer tabulation needs [transfer] kind = ldpc")
    points = cp.getint("transfer", "points", fallback=201)
    save_tabulated(transfer, args.out, points=points)
    xp = threshold_xp(transfer, ensemble)
    print(f"wrote {points}-point table -> {args.out} (design rate "
          f"{ensemble.design_rate:.4f}, x_p {xp.x_p:.6f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="raptorkit",
                                     description="raptor/LT code design and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize a degree distribution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="distribution.txt")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("analyze", help="trajectory, threshold, and bounds")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="BER versus overhead campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("transfer", help="tabulate an LDPC transfer function")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="transfer.txt")
    p.set_defaults(func=_cmd_transfer)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # diagnostic line + nonzero exit, per contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
