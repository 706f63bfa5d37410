"""Result summaries compared between the engine and the reference.

Both sides serialise a query result as XML trees, one after another.  A
summary parses them with the standard library only and canonicalises
each tree (``ET.canonicalize``, text stripped at the ends), so the
comparison does not depend on attribute order or on how either side
spaces its output.

Every query is compared as a sequence: the tree count and a digest of
the canonical trees in order.  The summary also holds a digest of the
sorted trees, which tells an output that holds the reference's trees in
another order from one whose trees differ.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET


def canonical_trees(xml_text: str) -> list:
    """The canonical form of every top-level tree in ``xml_text``."""
    root = ET.fromstring(f"<result>{xml_text}</result>")
    return [
        ET.canonicalize(ET.tostring(tree, encoding="unicode").strip(),
                        strip_text=True)
        for tree in root
    ]


def _digest(trees: list) -> str:
    return hashlib.sha256("\n".join(trees).encode()).hexdigest()


def summarize(xml_text: str) -> dict:
    """Tree count, digest of the sequence and digest of the sorted trees."""
    trees = canonical_trees(xml_text)
    return {"trees": len(trees), "sequence": _digest(trees),
            "content": _digest(sorted(trees))}


def verdict(got: dict, expected: dict) -> str:
    """``"same"``, ``"order"`` (same trees, other order) or ``"content"``."""
    if got == expected:
        return "same"
    if got["content"] == expected["content"]:
        return "order"
    return "content"
