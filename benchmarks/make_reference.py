#!/usr/bin/env python3
"""Regenerate benchmarks/reference.json: the pinned outputs that every
benchmark op is checked against.

    python3 benchmarks/make_reference.py

Run it only at the commit that defines the reference outputs; a later
commit must reproduce them, not rewrite them.  It records
* world_lp: a digest of the (replication, policy, repr(cost)) rows of every
  replication index in the pool;
* world_mdp: the same for each of the calibration seeds;
* solve_scaling: a digest of the ``solve --out`` JSON bytes of every
  instance variant the workload can draw.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def world(name: str, offset=None) -> dict:
    w = wl.World(name, ROOT, 0, {name: {}})
    w.calibration_offset = offset
    w.load()
    return {str(rep): wl.rows_digest(w.op(rep))
            for rep in range(wl.WORLD_POOL)}


def solves() -> dict:
    keys = [("instance", n, s) for n in wl.SOLVE_INSTANCES
            for s in wl.POOL_SCALES]
    keys += [("sweep", T, s, e) for T in [wl.WARMUP_T] + wl.SWEEP_T
             for s in wl.SWEEP_SIZES for e in wl.SWEEP_ETAS]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        in_path, out_path = Path(tmp) / "in.json", Path(tmp) / "out.json"
        for key in keys:
            with open(in_path, "w") as f:
                json.dump(wl.variant(ROOT, key), f, indent=1)
            if wl.solve(in_path, out_path) != 0:
                raise SystemExit(f"solve failed on {wl.variant_name(key)}")
            out[wl.variant_name(key)] = wl.digest(out_path.read_bytes())
    return out


def main() -> None:
    ref = {"world_lp": world("world_lp"),
           "world_mdp": {str(k): world("world_mdp", k)
                         for k in range(wl.CALIBRATION_SEEDS)},
           "solve_scaling": solves()}
    with open(HERE / "reference.json", "w") as f:
        json.dump(ref, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
