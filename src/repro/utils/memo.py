"""The bounded memo table behind every value-keyed cache.

A long-lived deployment sees an unbounded stream of fresh input values,
so a memo keyed by anything derived from them (parts, codewords,
decision rows, symbol sets) must forget.  Every entry is a pure function
of its key, so forgetting one only ever costs a recompute.
"""

from __future__ import annotations

#: Entries a value-keyed memo holds before it starts over.
VALUE_MEMO_CAPACITY = 1024


class ValueMemo(dict):
    """A memo dict that empties itself when an insert finds it full.

    Only ``memo[key] = value`` is bounded (the size check runs on insert
    alone, so hits cost what a plain dict's do); callers fill it that
    way and never through ``setdefault``/``update``.
    """

    __slots__ = ()

    def __setitem__(self, key, value):
        if len(self) >= VALUE_MEMO_CAPACITY:
            self.clear()
        dict.__setitem__(self, key, value)
