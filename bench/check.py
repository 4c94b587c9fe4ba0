"""Certificate check that shares no code with the program under test.

``antimagic.graph.verify_antimagic`` is the program's own gate; this check
recomputes the answer from the edges the benchmark generated, so a parser
or verifier defect cannot vouch for itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def certificate_error(n: int, edges: np.ndarray, labels: Sequence[int]) -> Optional[str]:
    """None if ``labels`` is an antimagic labeling of the graph, else the reason.

    ``edges`` must be sorted the way ``Graph`` stores them (``u < v``,
    lexicographic), because label ``i`` belongs to the ``i``-th stored edge.
    """
    m = len(edges)
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (m,):
        return f"{lab.size} labels for {m} edges"
    if m and (lab.min() < 1 or lab.max() > m
              or (np.bincount(lab, minlength=m + 1)[1:] != 1).any()):
        return "labels are not a permutation of 1..m"
    w = lab.astype(np.float64)  # sums stay far below 2**53, so this is exact
    sums = np.bincount(edges[:, 0], weights=w, minlength=n) + np.bincount(edges[:, 1], weights=w, minlength=n)
    if np.unique(sums).size != n:
        return "two vertex sums are equal"
    return None
