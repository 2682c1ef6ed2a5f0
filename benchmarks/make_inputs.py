"""Regenerate the benchmark's inputs and goldens from the current package.

    python3 benchmarks/make_inputs.py

Writes, under benchmarks/inputs/:
  lt_ref_alpha21.txt     the reference design (no precode, alpha 21,
                         delta 0.04) that sim_lt_above transmits
  raptor_jd_best.txt     the best precode-aware design of design_precode,
                         which sim_raptor_near transmits with its precode
  smoke_design_precode.ini  the toy precode design, with the computed x_p
  goldens.json           best alpha, its rate and the alpha profile of each
                         design workload, full and smoke size

Run it only for a change meant to alter the designs: every benchmark design
run is checked against goldens.json.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads
from raptorkit.degrees import LdpcEnsemble, read_distribution, write_distribution
from raptorkit.design import DesignConfig, optimize_distribution
from raptorkit.jfunction import channel_from_sigma
from raptorkit.transfer import TransferFunction, threshold_xp

INPUTS = workloads.INPUTS


def main() -> None:
    channel = channel_from_sigma(workloads.SIGMA)
    ref = optimize_distribution(
        DesignConfig(channel=channel, transfer=TransferFunction.null(), alpha_grid=(21.0,),
                     delta=0.04, strict_margin=1e-4), 21.0)
    assert ref.verified
    write_distribution(ref.distribution, INPUTS / "lt_ref_alpha21.txt")

    ens = LdpcEnsemble.regular(3, 60)
    x_p = threshold_xp(TransferFunction.analytic_ldpc(ens), ens).x_p
    full = (INPUTS / "design_precode.ini").read_text()
    (INPUTS / "smoke_design_precode.ini").write_text(
        "; Toy-size precode-aware design for the benchmark's own test: x_p is the\n"
        "; computed threshold, given as a number so the run takes a second.\n"
        + full[full.index("[channel]"):]
        .replace("alpha_grid = 6,7,8,10,12,15,18,21,25,30", "alpha_grid = 7,8")
        .replace("x_p = auto", f"x_p = {x_p!r}"))

    goldens = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=workloads.ROOT) as tmp:
        workdir = Path(tmp)
        for key in ("design_precode", "design_plain", "smoke_design_precode", "smoke_design_plain"):
            output = workloads.run_design(INPUTS / f"{key}.ini", workdir)
            goldens[key] = output
            if key == "design_precode":
                write_distribution(read_distribution(workdir / "design_dist.txt"),
                                   INPUTS / "raptor_jd_best.txt")
    with open(INPUTS / "goldens.json", "w") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    for key, output in goldens.items():
        print(key, output["best"])


if __name__ == "__main__":
    main()
