"""RC101 clean fixture: worker state is passed explicitly or reset per worker.

``_STATE`` is module-level, but the pool initializer clears it before any
task runs, so every worker starts from the same empty dict.
"""

from concurrent.futures import ProcessPoolExecutor

_STATE = {}


def _init(scale: int) -> None:
    _STATE.clear()
    _STATE["scale"] = scale


def _task(shard: int, scale: int) -> int:
    return shard * scale * _STATE["scale"]


def run(shards: list, scale: int) -> list:
    with ProcessPoolExecutor(initializer=_init, initargs=(scale,)) as pool:
        futures = [pool.submit(_task, s, scale) for s in shards]
        return [f.result(timeout=60.0) for f in futures]
