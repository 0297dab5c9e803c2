"""Rewrite pins.json: the canonical generate and train digests of every variant.

    python3 perfbench/pin.py [generate|train ...]

Runs the generate and train workloads once per input variant with
OPENBLAS_NUM_THREADS=1, the thread setting whose model bits are canonical,
and stores the dataset and model digests those runs record (only for the
named workloads, when some are named; the other pins are kept). The benchmark
fails a generate run whose dataset differs from its pin, and counts the
train models that match theirs as generative.models_canonical.
Run it from the root of a capinv checkout, only when the canonical bits are
meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import VARIANTS  # noqa: E402


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    chosen = sys.argv[1:] or ["generate", "train"]
    pins = json.loads((HERE / "pins.json").read_text(encoding="ascii"))
    for workload, key in (("generate", "dataset"), ("train", "models")):
        if workload not in chosen:
            continue
        # The runs read pins.json: clear the old pins so that they cannot fail on them.
        pins[workload] = {}
        write(pins)
        for variant in range(VARIANTS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(variant), "--seconds", "0", "--trace", "0"]
            proc = subprocess.run(cmd, env=env, cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"pin run of {workload} variant {variant} failed its checks")
            record = json.loads((HERE.parent / ".perfbench" / f"{workload}-seed{variant}-trace0.json").read_text())
            if record["machine"]["blas_threads"] not in (None, 1):
                raise SystemExit(f"BLAS ran {record['machine']['blas_threads']} threads despite OPENBLAS_NUM_THREADS=1")
            pins[workload][str(variant)] = record["digests"][key]
            print(f"{workload} variant {variant}: {json.dumps(record['digests'][key])}")
    write(pins)
    return 0


def write(pins: dict) -> None:
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="ascii")


if __name__ == "__main__":
    sys.exit(main())
