"""RC201 violations: hidden copies on the per-batch score path."""

import numpy as np


class GatherKernel:
    def __init__(self, config):
        self._config = config
        self._buf0 = None
        self._buf1 = None

    def prepare(self, buf0, buf1):
        self._buf0 = buf0
        self._buf1 = buf1

    def score(self, anchors0, anchors1):
        idx = np.asarray(anchors0, dtype=np.int64)
        w0 = self._buf0[idx]  # fancy gather: a fresh copy every batch
        flat = w0.flatten()  # flatten always copies
        widened = flat.astype(np.int32)  # astype without copy=False
        return widened
