"""Clean twin: monotone self scratch, sliced per batch."""

import numpy as np


class ScratchKernel:
    def __init__(self, config):
        self._config = config
        self._out = np.empty(0, dtype=np.int32)

    def prepare(self, buf0, buf1):
        self._buf0 = buf0
        self._buf1 = buf1

    def _ensure(self, n):
        if n > self._out.shape[0]:
            self._out = np.empty(n, dtype=np.int32)

    def score(self, anchors0, anchors1):
        n = anchors0.shape[0]
        self._ensure(n)
        out = self._out[:n]
        out[:] = 0
        return out
