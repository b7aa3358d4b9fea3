"""One bounded memo from clause text to parsed clause.

A query travels as Figure 6's text (What / Where / When / Which), and SCINET
forwards that text between ranges, so one clause text is parsed again at
every hop and for every query that repeats it. The four clause parsers —
:func:`repro.location.language.parse_location`,
:meth:`repro.query.model.WhatClause.parse`,
:meth:`repro.query.temporal.WhenClause.parse` and
:meth:`repro.query.selection.WhichClause.parse` — sit behind
:func:`clause_memo`, which parses each distinct text once.

Sharing one parsed value between callers is safe only because each parser
is a pure function of its text and its result is immutable all the way
down: frozen dataclasses holding strings, floats, tuples, frozen
``Criterion`` and frozen, slotted ``TypeSpec`` values. A parser that reads
anything but its text, or a result that can be mutated, must not be
memoised. A text that does not parse raises on every call: ``lru_cache``
stores only returned values, never an exception.
"""

import functools

#: distinct texts each clause parser remembers, least recently used
#: evicted first. Larger than the most distinct texts of one clause any
#: benchmark workload parses in a run (412 What texts on ``campus_steady``
#: at seed 1), so a repeated text is never parsed twice within a run.
CLAUSE_MEMO = 1024

#: the decorator: each parser it wraps gets its own memo of
#: :data:`CLAUSE_MEMO` texts, with ``cache_info()``/``cache_clear()``, and
#: ``__wrapped__`` is the unmemoised parser
clause_memo = functools.lru_cache(maxsize=CLAUSE_MEMO)
