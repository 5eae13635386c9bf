"""Runs one workload body in its own interpreter.

    python3 benchmark/body.py <out_dir>

`run.py` starts this script with `subprocess`, once per body, after writing
``<out_dir>/request.json`` (workload, inputs, cache path, trace flag).  The
script runs the body (see `workloads.body_process`) and writes its result to
``<out_dir>/result.pkl``.  A plain subprocess starts no helper process of its
own, so nothing outlives the body once the parent has waited for it.
"""

from __future__ import annotations

import json
import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main(out_dir: str) -> int:
    with open(os.path.join(out_dir, "request.json")) as fh:
        req = json.load(fh)
    result = workloads.body_process(req["workload"], req["spec"], req["cache"],
                                    out_dir, req["trace"])
    tmp = os.path.join(out_dir, "result.pkl.tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(result, fh)
    os.replace(tmp, os.path.join(out_dir, "result.pkl"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
