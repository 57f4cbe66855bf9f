"""The calibration probe, run once a second in a process of its own.

serve-mix runs it beside its open loop to follow the host's speed through
the timed window: the probe cannot run inside the server, and in the client
it would hold the GIL the sender and follower threads need.  It prints one
probe time per line and exits when its stdin is closed.
"""

from __future__ import annotations

import select
import sys

from common import calibration_probe

#: Seconds between the starts of two probes (a probe takes about 70 ms).
PERIOD_S = 1.0


def main() -> int:
    while True:
        print(calibration_probe(), flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable:  # the only thing the parent sends is end-of-file
            return 0


if __name__ == "__main__":
    sys.exit(main())
