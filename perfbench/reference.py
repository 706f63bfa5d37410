"""Independent reference results for the 23 benchmark queries.

Each query is evaluated by hand over the same XML text with the standard
library's ``xml.etree.ElementTree`` -- nothing here imports the engine.
Run as a script it prints, as one JSON object, the summary
(:func:`check.summarize`) of every query it is asked for:

    python3 perfbench/reference.py --factor 0.05 --seed 20040613 x1 x2

The benchmark runs it in a child process, so the reference's object graph
never lives in the measured process.
"""

from __future__ import annotations

import argparse
import bisect
import copy
import json
import os
import sys
import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import summarize  # noqa: E402
from xmark import generate_xml  # noqa: E402

Element = ET.Element


def _texts(elements: Iterable[Element]) -> str:
    """``path/text()`` inside a constructor: the texts, space-joined."""
    return " ".join(e.text for e in elements if e.text)


def _el(tag: str, text: str = "", attrs: Dict[str, str] = None,
        children: Iterable[Element] = ()) -> Element:
    element = Element(tag, attrs or {})
    element.text = text or None
    for child in children:
        element.append(child)
    return element


def _copy(element: Element) -> Element:
    clone = copy.deepcopy(element)
    clone.tail = None
    return clone


def _num(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return float("nan")


def _name(person: Element) -> str:
    return _texts(person.findall("name"))


def _bidder_people(auction: Element) -> set:
    return {
        node.get("person")
        for bidder in auction.findall("bidder")
        for node in bidder.iter()
        if node is not bidder and node.get("person") is not None
    }


def _older_than_25(person: Element) -> bool:
    return any(
        _num(age.text) > 25 for age in person.iter("age") if age is not person
    )


class Reference:
    """The document plus one method per query, each returning trees."""

    def __init__(self, xml_text: str) -> None:
        self.site = ET.fromstring(xml_text)
        self.persons = list(self.site.iter("person"))
        self.open = list(self.site.iter("open_auction"))
        self.closed = list(self.site.iter("closed_auction"))
        self.items = list(self.site.iter("item"))

    def run(self, query: str) -> str:
        trees = getattr(self, query)()
        return "\n".join(ET.tostring(t, encoding="unicode") for t in trees)

    def x1(self) -> List[Element]:
        return [_el("out", _name(p)) for p in self.persons
                if p.get("id") == "person0"]

    def x2(self) -> List[Element]:
        return [_el("increase", _texts(o.findall("bidder/increase")))
                for o in self.open]

    def x3(self) -> List[Element]:
        busy = [(o, _bidder_people(o)) for o in self.open
                if len(o.findall("bidder")) > 2]
        return [
            _el("bid", children=[_el("who", _name(p))] + [
                _copy(i) for i in o.findall("initial")])
            for p in self.persons for o, people in busy
            if p.get("id") in people
        ]

    def x4(self) -> List[Element]:
        wanted = ("open_auction3", "open_auction7")
        return [_el("history", _texts(o.findall("initial")))
                for o in self.open if o.get("id") in wanted]

    def x5(self) -> List[Element]:
        return [
            _el("hot", children=[_copy(b) for b in o.findall("bidder")])
            for o in self.open
            if o.findall("bidder") and any(
                _num(i.text) > 20 for i in o.findall("bidder/increase"))
        ]

    def _count(self, scope: Element, tag: str) -> str:
        return str(sum(1 for e in scope.iter(tag) if e is not scope))

    def x6(self) -> List[Element]:
        return [_el("cnt", self._count(r, "item"))
                for r in self.site.findall("regions")]

    def x7(self) -> List[Element]:
        s = self.site
        return [_el("counts", children=[
            _el("m", self._count(s, "mail")),
            _el("i", self._count(s, "item")),
            _el("d", self._count(s, "description")),
        ])]

    def x8(self) -> List[Element]:
        bought: Dict[str, int] = {}
        for t in self.closed:
            for buyer in t.findall("buyer"):
                key = buyer.get("person")
                bought[key] = bought.get(key, 0) + 1
        return [_el("item", str(bought.get(p.get("id"), 0)),
                    {"person": _name(p)}) for p in self.persons]

    def x9(self) -> List[Element]:
        europe = {i.get("id") for e in self.site.iter("europe")
                  for i in e.findall("item")}
        bought: Dict[str, int] = {}
        for t in self.closed:
            if not any(r.get("item") in europe
                       for r in t.findall("itemref")):
                continue
            for buyer in t.findall("buyer"):
                key = buyer.get("person")
                bought[key] = bought.get(key, 0) + 1
        return [_el("person", str(bought.get(p.get("id"), 0)),
                    {"name": _name(p)}) for p in self.persons]

    def _personne(self, q: Element) -> Element:
        def text(path: str) -> Element:
            return _texts(q.findall(path))

        incomes = [p.get("income") for p in q.findall("profile")
                   if p.get("income") is not None]
        revenu = _el("revenu", attrs={"income": incomes[0]} if incomes else {})
        return _el("personne", children=[
            _el("statistiques", children=[
                _el("sexe", text("profile/gender")),
                _el("age", text("profile/age")),
                _el("education", text("profile/education")),
                revenu,
            ]),
            _el("coordonnees", children=[
                _el("nom", text("name")),
                _el("rue", text("address/street")),
                _el("ville", text("address/city")),
                _el("pays", text("address/country")),
                _el("reseau", children=[
                    _el("courrier", text("emailaddress")),
                    _el("pagePerso", text("homepage")),
                ]),
            ]),
            _el("cartePaiement", text("creditcard")),
        ])

    def _categories(self, only: str = None) -> List[Element]:
        interests = [
            (q, {i.get("category") for i in q.findall("profile/interest")})
            for q in self.persons
        ]
        out = []
        for c in self.site.iter("category"):
            if only is not None and c.get("id") != only:
                continue
            out.append(_el("categorie", children=[
                _el("id", _texts(c.findall("name")))] + [
                self._personne(q) for q, cats in interests
                if c.get("id") in cats
            ]))
        return out

    def x10(self) -> List[Element]:
        return self._categories()

    def x10a(self) -> List[Element]:
        return self._categories("category0")

    def _income_counts(self, attr: str, floor=None) -> List[Element]:
        # income > initial holds for some pair exactly when the largest
        # income exceeds the auction's smallest initial
        lowest = sorted(
            min(_num(i.text) for i in o.findall("initial"))
            for o in self.open if o.findall("initial"))
        out = []
        for p in self.persons:
            incomes = [_num(pr.get("income")) for pr in p.findall("profile")
                       if pr.get("income") is not None]
            top = max(incomes, default=float("nan"))
            if floor is not None and not top > floor:
                continue
            count = bisect.bisect_left(lowest, top) if top == top else 0
            out.append(_el("items", str(count), {attr: _name(p)}))
        return out

    def x11(self) -> List[Element]:
        return self._income_counts("name")

    def x12(self) -> List[Element]:
        return self._income_counts("person", 150000)

    def x13(self) -> List[Element]:
        return [
            _el("item", attrs={"name": _name(i)},
                children=[_copy(d) for d in i.findall("description")])
            for i in self.site.findall("regions/australia/item")
        ]

    def x14(self) -> List[Element]:
        return [
            _el("out", _name(i)) for i in self.items
            if any("gold" in (k.text or "") for k in i.iter("keyword"))
        ]

    _DEEP = ("closed_auctions/closed_auction/annotation/description/"
             "parlist/listitem/text/keyword")

    def x15(self) -> List[Element]:
        return [_copy(k) for k in self.site.findall(self._DEEP)]

    def x16(self) -> List[Element]:
        deep = self._DEEP.split("/", 2)[2]
        return [
            _el("person", attrs={"id": s.get("person")})
            for a in self.site.findall("closed_auctions/closed_auction")
            if any(k.text == "gold" for k in a.findall(deep))
            for s in a.findall("seller")
        ]

    def x17(self) -> List[Element]:
        return [_el("out", _name(p)) for p in self.persons
                if any(g.text == "female"
                       for g in p.findall("profile/gender"))]

    def x18(self) -> List[Element]:
        return [_el("r", _texts(o.findall("reserve"))) for o in self.open
                if any(_num(r.text) > 100 for r in o.findall("reserve"))]

    def x19(self) -> List[Element]:
        ordered = sorted(self.items,
                         key=lambda i: _texts(i.findall("location")))
        return [
            _el("item", attrs={"name": _name(i)}, children=[
                _el("loc", _texts(i.findall("location")))])
            for i in ordered
        ]

    def x20(self) -> List[Element]:
        return [_el("result", children=[
            _el(tag, self._count(s, name)) for tag, name in (
                ("p", "person"), ("i", "interest"), ("w", "watch"),
                ("e", "emailaddress"))
        ]) for s in self.site.findall("people")]

    def _popular(self) -> list:
        return [(o, _bidder_people(o)) for o in self.open
                if len(o.findall("bidder")) > 5]

    def Q1(self) -> List[Element]:
        popular = self._popular()
        return [
            _el("person", attrs={"name": _name(p)},
                children=[_copy(b) for b in o.findall("bidder")])
            for p in self.persons if _older_than_25(p)
            for o, people in popular if p.get("id") in people
        ]

    def Q2(self) -> List[Element]:
        popular = self._popular()
        out = []
        for p in self.persons:
            mine = [o for o, people in popular if p.get("id") in people]
            if not _older_than_25(p):
                continue
            if not all(_num(q.text) > 2
                       for o in mine for q in o.findall("quantity")):
                continue
            out.append(_el("person", attrs={"name": _name(p)}, children=[
                _copy(b) for o in mine for b in o.findall("bidder")]))
        return out


def reference_summaries(xml_text: str, queries: List[str]) -> dict:
    reference = Reference(xml_text)
    return {q: summarize(reference.run(q)) for q in queries}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factor", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("queries", nargs="+")
    args = parser.parse_args(argv)
    text = generate_xml(args.factor, args.seed)
    print(json.dumps(reference_summaries(text, args.queries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
