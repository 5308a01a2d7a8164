"""Fresh-process operations that are not CLI commands.

    python probe.py setup CONFIG
        import thermodelay.cli and load CONFIG: the fixed cost of every command.
    python probe.py dissipativity CONFIG SEED TRIALS
        run spectral.dissipativity_test on CONFIG's grid and print one JSON
        line with its result and the seconds the call took.

Both expect thermodelay on the import path.
"""

from __future__ import annotations

import json
import sys
import time


def dissipativity(config: str, seed: int, trials: int) -> dict:
    """dissipativity_test at the config's grid and beta, with the CLI's xi."""
    from thermodelay.cli import _constants_for_run
    from thermodelay.config import load_config
    from thermodelay.spectral import dissipativity_test

    cfg = load_config(config)
    xi = _constants_for_run(cfg).xi
    t0 = time.perf_counter()
    res = dissipativity_test(cfg.grid, cfg.params, xi, trials=trials, seed=seed)
    return {"seconds": time.perf_counter() - t0, "result": res}


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        import thermodelay.cli  # noqa: F401
        from thermodelay.config import load_config
        load_config(argv[1])
        return 0
    if argv[:1] == ["dissipativity"] and len(argv) == 4:
        print(json.dumps(dissipativity(argv[1], int(argv[2]), int(argv[3]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
