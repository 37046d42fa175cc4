"""Write digests.json: SHA-256 of every standard-coordinate potential
document the workloads compare byte for byte.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only when a change to the document bytes is intended.
"""

import json
import random
from pathlib import Path

import ladder
import oracles
import sweep
from run import _call

HERE = Path(__file__).resolve().parent


def main():
    digests = {"F2-paper/cutoff2": oracles.digest(sweep.Potential("F2").text)}
    for base in ladder.DECK:
        for cutoff in (1, 2, 3, 4):
            job = ladder.LadderJob(base, "std", cutoff, random.Random(0))
            digests[job.key] = oracles.digest(job.run(_call)[-1])
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
