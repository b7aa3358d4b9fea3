"""Catalog-lint fixture: metric call sites with deliberate mistakes.

Checked against cat_catalog.py. Never imported; AST only.
"""

GOOD_NAME = "app.good.counter"


def wire_up(metrics):
    metrics.counter(GOOD_NAME)
    metrics.counter("app.undeclared.series")  # line 11
    metrics.counter("app.kindful.series")     # line 12: histogram, not counter
    metrics.histogram("bad.two")              # line 13: naming violation
    ordinary.counter("not.a.metric.call")     # receiver is not a registry
