#!/usr/bin/env python3
"""Recompute breastcancer's certified optima by enumeration, from scratch.

    python3 slimbench/exhaustive.py

Enumerates every coefficient vector of breastcancer's set {0, +-1, +-10}
on the table's distinct rows (slimbench/oracle.py, no scoresys code)
for each c0 on the path, then runs `scoresys train` on the same inputs
and compares objective and model.  That is 5^10, about 9.8 million
vectors, which takes a minute or two; the per-run checks of that
workload therefore test properties instead.  The other two workloads
are enumerated on every run.  Every seed poses the same problems, so
the inputs are those of seed 1.  Exit code 0 when every c0 agrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD, SEED = "breastcancer", 1


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("SLIM_BUDGET_S", None)
    from scoresys import cli

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    agree = True
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "work")) as work:
        inp = workloads.make_inputs(WORKLOAD, SEED, ROOT, work)
        with open(inp.csv, encoding="utf-8") as fh:
            t = oracle.read_table(fh.read())
        domains = oracle.domains_for(inp.spec.coefset, t.names)
        lat = oracle.Lattice(t, domains)
        path = inp.spec.path
        t0 = time.perf_counter()
        found = lat.optima([np.arange(t.n)], [(0, c0) for c0 in path])
        print(f"{WORKLOAD}: {lat.count} vectors on {len(lat.distinct)} distinct "
              f"of {t.n} rows, enumerated in {time.perf_counter() - t0:.1f} s")
        for c0, (i, obj) in zip(path, found):
            vec = lat.vector(i)
            model = os.path.join(work, "model.json")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = cli.main(["train", "--data", inp.csv, "--coefset", inp.coefset,
                               "--c0", repr(float(c0)), "--jobs", "1", "--out", model])
            if rc != 0:
                print(f"c0={c0}: scoresys train exited {rc}")
                agree = False
                continue
            with open(model, encoding="utf-8") as fh:
                coefs = oracle.model_coefs(json.load(fh), t)
            val = oracle.objective(t, coefs, c0, lat.l1max)
            same = (val.total == obj and coefs == vec
                    and oracle.field(out.getvalue(), "status") == "optimal")
            agree &= same
            print(f"c0={c0}: enumeration {obj} ({float(obj):.6f}) "
                  f"{[str(v) for v in vec]}; scoresys {val.total} "
                  f"{[str(v) for v in coefs]} -> {'agree' if same else 'DISAGREE'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
