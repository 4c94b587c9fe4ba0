import hashlib

import pytest

from antimagic.lab.corpus import graphs_upto_iso
from antimagic.io import emit_graph6

# Isomorphism classes of graphs on n vertices (OEIS A000088)
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

# sha256 of the graph6 lines of graphs_upto_iso(n) for n = 1..7, one line per
# class, in output order: each class is the smallest edge mask of its orbit,
# so the representatives and their order are part of what is pinned.
CLASSES_DIGEST = "f0d81f45bbd986d7284c6039c52ebdbced5f79628a5b1a208b69ae5599ed198e"


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_class_counts(n):
    assert len(graphs_upto_iso(n)) == CLASS_COUNTS[n]


def test_representatives_frozen():
    lines = "".join(emit_graph6(g) + "\n" for n in sorted(CLASS_COUNTS) for g in graphs_upto_iso(n))
    assert hashlib.sha256(lines.encode()).hexdigest() == CLASSES_DIGEST
