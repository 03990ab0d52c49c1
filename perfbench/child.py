"""Run one benchmark role in this process and write its JSON document.

``run.py`` starts this as ``python3 perfbench/child.py ROLE OPTIONS OUT``
with ``src`` on ``PYTHONPATH``; OPTIONS and OUT are JSON file paths.
Keeping each role in its own process gives every paper-grid sweep a cold
interpreter and every workload its own peak-memory figure.
"""

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    role, options_path, out_path = argv
    options = json.loads(Path(options_path).read_text())
    import scenarios

    document = scenarios.run_role(role, options)
    Path(out_path).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
