"""One bounded memo from a wire text or value to what it decodes to.

A query travels as Figure 6's text (What / Where / When / Which), and SCINET
forwards that text between ranges, so one clause text is parsed again at
every hop and for every query that repeats it; every arrival names its
entities by hex text, and every event carries one of a few hundred type
specs. The decoders behind :func:`decode_memo` decode each distinct input
once: the four clause parsers —
:func:`repro.location.language.parse_location`,
:meth:`repro.query.model.WhatClause.parse`,
:meth:`repro.query.temporal.WhenClause.parse` and
:meth:`repro.query.selection.WhichClause.parse` —,
:meth:`repro.core.ids.GUID.from_hex` and
:func:`repro.core.types.spec_from_wire`'s ``TypeSpec``.

Sharing one decoded value between callers is safe only because each
decoder is a pure function of its input and its result is immutable all
the way down: frozen dataclasses holding strings, numbers, tuples, frozen
``Criterion`` and frozen, slotted ``TypeSpec`` and ``GUID`` values. A
decoder that reads anything but its input, a result that can be mutated,
or a key that equates inputs JSON writes differently (``1``, ``1.0`` and
``True`` are one key to Python) must not be memoised. An input that does
not decode raises on every call: ``lru_cache`` stores only returned values,
never an exception.
"""

import functools

#: distinct inputs each decoder remembers, least recently used evicted
#: first. Larger than the most distinct inputs of one decoder any
#: benchmark workload decodes in a run (883 GUID texts on ``query_storm``,
#: 412 What texts on ``campus_steady``, at seed 1), so a repeated input is
#: never decoded twice within a run.
DECODE_MEMO = 1024

#: the decorator: each decoder it wraps gets its own memo of
#: :data:`DECODE_MEMO` inputs, with ``cache_info()``/``cache_clear()``, and
#: ``__wrapped__`` is the unmemoised decoder
decode_memo = functools.lru_cache(maxsize=DECODE_MEMO)
