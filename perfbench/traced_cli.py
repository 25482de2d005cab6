"""``python -m repro`` with the benchmark's timing wrappers installed.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_cli.py run fig6_csma --trace trace.json

The argv is handed unchanged to ``repro.runner.cli.main``; the wrappers add
``bench:*`` spans to the trace the CLI writes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probes import Probe, install_engine_probes  # noqa: E402


def main() -> int:
    install_engine_probes(Probe())
    from repro.runner.cli import main as cli_main
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
