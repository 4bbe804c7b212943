"""The benchmark's behaviour gate: one traced pass of every workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pass_matches_every_pin():
    # Every output is checked against bench/pins.json, so a changed digest
    # fails here; the tracer refuses to run when a traced function is missing
    # or renamed.  About 8 s on 2 cores.
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3", "--seconds", "1"]
        + ["--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    # one reduced basis per distinct ideal, and one basis for the whole linear
    # system of parameters wherever its first forms are parameters (53 trial
    # bases on classify-catalog before)
    for workload in ("classify-catalog", "analyze-catalog", "gb-random"):
        calls = metrics[f"{workload}.groebner.buchberger.calls"]
        assert calls == metrics[f"{workload}.groebner.buchberger.distinct_ideals"], workload
    assert metrics["classify-catalog.invariants.artinian_reduction.gb_calls"] <= 24
    # the exact division work of the seed-3 pass, after Hilbert-driven pair
    # discarding (947 / 554, 1,754 / 699 and 242 / 173 when every pair was
    # reduced).  675 and 1,482 normal forms became 627 and 1,096 when the
    # quotient view stopped dividing standard monomials, which are their own
    # normal forms, and the Jacobian minors came to be expanded in the
    # quotient, which divides fewer distinct monomials than the minors in S
    # have.  627 / 282 and 1,096 / 427 became 593 / 235 and 1,062 / 380 when
    # the artinian reduction's trial bases came to be computed in n - k
    # variables, with the linear forms substituted away, where the ring's
    # numerator over (1-t)^(n-k) bounds every degree.  1,062 / 380 on
    # analyze-catalog became 889 / 247 when the singular locus stopped
    # computing a basis for a cone over an isolated singularity (the
    # veronese_cone 6 and the quadrics (3,4) and (3,5)), whose minors span a
    # whole degree of the base ring.  A degree-by-degree batched engine
    # (ROADMAP item 6) re-baselines these counts on purpose.
    division_work = {
        "classify-catalog": (593, 235),
        "analyze-catalog": (889, 247),
        "gb-random": (133, 64),
    }
    for workload, (normal_forms, spairs) in division_work.items():
        assert metrics[f"{workload}.groebner.normal_form.calls"] == normal_forms, workload
        assert metrics[f"{workload}.groebner.spair_reductions"] == spairs, workload
