"""Per-character canonicalisation oracle.

:func:`repro.text.terms.canonicalize` translates text through a lazily
filled codepoint table.  This module keeps the straightforward loop it
replaced — map each character on its own, elide combining marks, turn
everything else into a split point — as the independent reference that
``test_canonicalize_oracle.py`` compares the table against.
"""

from __future__ import annotations

import unicodedata

from repro.text.terms import _canonicalize_char


def oracle_canonicalize(text: str) -> str:
    """Canonicalise ``text`` one character at a time."""
    out: list[str] = []
    for char in text:
        mapped = _canonicalize_char(char)
        if mapped:
            out.append(mapped)
        elif unicodedata.combining(char):
            continue
        else:
            out.append(" ")
    return "".join(out)
