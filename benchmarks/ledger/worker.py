"""One round of one workload in a fresh process.

``python -m benchmarks.ledger.worker '<json config>'`` -- started only by
:mod:`benchmarks.ledger.cli`, which puts the result line back together.  A
fresh process per round is what makes ``setup_s`` (interpreter start, import,
construction, warm-up) and ``peak_rss_mb`` belong to one workload.
"""

from __future__ import annotations

import json
import sys
import time

#: Prefix of the one stdout line that carries the round's result.
RESULT_MARK = "LEDGER-RESULT "


def main() -> int:
    config = json.loads(sys.argv[1])
    # Machine speed at the start of set-up, taken before the heavy imports;
    # measure_round takes it again at the end and divides set-up by the mean.
    from benchmarks.ledger.calib import time_calibration

    began = time.time()
    start_cu_s = time_calibration()
    calibrating_s = time.time() - began
    from benchmarks.ledger.measure import measure_round

    result = measure_round(**config, start_cu_s=start_cu_s, calibrating_s=calibrating_s)
    print(RESULT_MARK + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
