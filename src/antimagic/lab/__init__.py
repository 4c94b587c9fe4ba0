"""The lab: code that reproduces and measures, beside the library that labels.

``corpus`` enumerates the small-graph corpora, ``generators`` builds the graph
families, and ``problab`` runs the desk-scale character-sum and point-mass
experiments behind Theorem 1.  They serve the tests and the reproduction
tables; no labeling request reaches them.

The lab imports from the labeling modules at the top level of the package,
and no labeling module imports from the lab, so a labeling run never loads
it.
"""
