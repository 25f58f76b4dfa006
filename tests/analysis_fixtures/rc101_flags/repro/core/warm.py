"""RC101 fixture: an initializer that resets one dict but not another.

``_STATE`` is cleared in every worker and is process-local; ``_MEMO`` is
only filled, so each worker starts from the parent's fork-time copy.
"""

from concurrent.futures import ProcessPoolExecutor

_STATE = {}
_MEMO = {}


def _init(scale: int) -> None:
    _STATE.clear()
    _STATE["scale"] = scale
    _MEMO[scale] = scale


def _task(shard: int) -> int:
    return shard * _STATE["scale"]


def run(shards: list, scale: int) -> list:
    with ProcessPoolExecutor(initializer=_init, initargs=(scale,)) as pool:
        futures = [pool.submit(_task, s) for s in shards]
        return [f.result(timeout=60.0) for f in futures]
