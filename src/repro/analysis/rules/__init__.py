"""Built-in lint rules, one per module.

Importing this package registers every rule with the framework registry
(:func:`repro.analysis.lint.all_rules` does it lazily).  To add a rule,
create ``<code>.py`` here with a ``@register_rule`` class and import it
below.  The layering rules (HLT001, OFF001, FAB001) share one module,
:mod:`~repro.analysis.rules.layering`: add a layering rule as a row of
its table.
"""

from repro.analysis.rules import (
    det002,
    dma001,
    gen001,
    layering,
    ord001,
    race001,
    sim001,
    skb001,
    unit001,
)

__all__ = ["skb001", "dma001", "sim001", "unit001", "gen001", "layering",
           "race001", "det002", "ord001"]
