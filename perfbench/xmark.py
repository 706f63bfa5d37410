"""Seeded XMark-shaped auction document, generated as XML text.

The benchmark owns its input generator, so the document a seed names
does not change when the engine's own generator does.  It is a copy of
the engine's ``src/repro/xmark/generator.py`` as of commit f2ad235, and
wrote the same text as ``XMarkGenerator(factor, seed).generate_xml()``
there; nothing keeps the two in step afterwards.  The element
ratios, optional-element probabilities and value distributions follow
the engine's synthetic XMark schema (XMark factor 1 = 25500 persons,
12000 open auctions, 9750 closed auctions, 21750 items, 1000
categories); at factor 0.05 the text is about 2.4 MB.
"""

from __future__ import annotations

import random
from typing import List, Optional

FACTOR1_COUNTS = {
    "person": 25500,
    "open_auction": 12000,
    "closed_auction": 9750,
    "item": 21750,
    "category": 1000,
}
REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
REGION_WEIGHTS = (0.05, 0.15, 0.10, 0.30, 0.30, 0.10)
P_AGE = 0.5
P_GENDER = 0.7
P_INCOME = 0.6
P_HOMEPAGE = 0.3
P_CREDITCARD = 0.4
P_ADDRESS = 0.6
P_RESERVE = 0.45
P_PHONE = 0.5
P_EDUCATION = 0.35
P_WATCHES = 0.5
P_PARLIST = 0.5
BIDDER_MAX = 14
BIDDER_P = 0.60
INTEREST_MAX = 5
WATCH_MAX = 6
KEYWORD_MAX = 3
MAIL_MAX = 2
WORDS = (
    "gold", "silver", "amber", "ivory", "jade", "linen", "cedar", "apple",
    "river", "stone", "cloud", "ember", "falcon", "harbor", "meadow",
    "north", "quill", "saddle", "tundra", "willow",
)
FIRST_NAMES = (
    "Alice", "Bob", "Carol", "David", "Erika", "Frank", "Grace", "Henri",
    "Ines", "Jack", "Karin", "Louis", "Mona", "Nils", "Olga", "Pavel",
    "Quinn", "Rosa", "Sven", "Tara",
)
LAST_NAMES = (
    "Abel", "Bauer", "Chen", "Dumas", "Evans", "Fischer", "Garcia", "Haas",
    "Ito", "Jonsson", "Klein", "Lopez", "Moreau", "Novak", "Olsen",
    "Pereira", "Qureshi", "Rossi", "Sato", "Toth",
)
CITIES = (
    "Paris", "Ann Arbor", "Vancouver", "Berlin", "Kyoto", "Lagos",
    "Santiago", "Sydney", "Mumbai", "Tromso",
)
COUNTRIES = (
    "France", "United States", "Canada", "Germany", "Japan", "Nigeria",
    "Chile", "Australia", "India", "Norway",
)
EDUCATIONS = ("High School", "College", "Graduate School", "Other")
AUCTION_TYPES = ("Regular", "Featured", "Dutch")


class El:
    """A minimal element: tag, attributes, optional text, children."""

    __slots__ = ("tag", "attrs", "text", "children")

    def __init__(self, tag: str, attrs: Optional[dict] = None,
                 text: Optional[str] = None) -> None:
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.text = text
        self.children: List["El"] = []


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write(element: El, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    attrs = "".join(
        f' {name}="{_esc(value).replace(chr(34), "&quot;")}"'
        for name, value in element.attrs.items()
    )
    if not element.children:
        if element.text is None:
            out.append(f"{pad}<{element.tag}{attrs}/>")
        else:
            out.append(
                f"{pad}<{element.tag}{attrs}>{_esc(element.text)}"
                f"</{element.tag}>"
            )
        return
    out.append(f"{pad}<{element.tag}{attrs}>")
    if element.text:
        out.append(f"{pad}  {_esc(element.text)}")
    for child in element.children:
        _write(child, indent + 1, out)
    out.append(f"{pad}</{element.tag}>")


def _scaled(count: int, factor: float) -> int:
    return max(1, round(count * factor))


class Generator:
    """Builds the ``site`` tree for one (factor, seed) pair."""

    def __init__(self, factor: float, seed: int) -> None:
        self.rng = random.Random(seed * 1_000_003 + round(factor * 1_000_000))
        self.n_persons = _scaled(FACTOR1_COUNTS["person"], factor)
        self.n_open = _scaled(FACTOR1_COUNTS["open_auction"], factor)
        self.n_closed = _scaled(FACTOR1_COUNTS["closed_auction"], factor)
        self.n_items = _scaled(FACTOR1_COUNTS["item"], factor)
        self.n_categories = _scaled(FACTOR1_COUNTS["category"], factor)

    def site(self) -> El:
        site = El("site")
        site.children += [
            self._regions(), self._categories(), self._people(),
            self._open_auctions(), self._closed_auctions(),
        ]
        return site

    # value helpers -----------------------------------------------------
    def _word(self) -> str:
        return self.rng.choice(WORDS)

    def _sentence(self, n_words: int) -> str:
        return " ".join(self._word() for _ in range(n_words))

    def _name(self) -> str:
        return f"{self.rng.choice(FIRST_NAMES)} {self.rng.choice(LAST_NAMES)}"

    def _maybe(self, probability: float) -> bool:
        return self.rng.random() < probability

    def _ref(self, prefix: str, count: int) -> str:
        return f"{prefix}{self.rng.randrange(count)}"

    def _date(self) -> str:
        rng = self.rng
        return (f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/"
                f"{rng.randint(1999, 2004)}")

    def _time(self) -> str:
        return f"{self.rng.randint(0, 23):02d}:{self.rng.randint(0, 59):02d}:00"

    @staticmethod
    def _leaf(tag: str, text) -> El:
        return El(tag, text=str(text))

    # sections ----------------------------------------------------------
    def _regions(self) -> El:
        regions = El("regions")
        item_no = 0
        for region_name, share in zip(REGIONS, REGION_WEIGHTS):
            region = El(region_name)
            for _ in range(max(1, round(self.n_items * share))):
                if item_no >= self.n_items:
                    break
                region.children.append(self._item(item_no, region_name))
                item_no += 1
            regions.children.append(region)
        while item_no < self.n_items:  # rounding remainder goes to europe
            regions.children[3].children.append(self._item(item_no, "europe"))
            item_no += 1
        return regions

    def _item(self, number: int, region: str) -> El:
        rng = self.rng
        item = El("item", {"id": f"item{number}"})
        if self._maybe(0.1):
            item.attrs["featured"] = "yes"
        item.children.append(self._leaf("location", region))
        item.children.append(self._leaf("quantity", rng.randint(1, 10)))
        item.children.append(self._leaf("name", self._sentence(2)))
        item.children.append(self._leaf(
            "payment", rng.choice(("Cash", "Creditcard", "Money order"))))
        item.children.append(self._description())
        item.children.append(self._leaf("shipping", "Will ship worldwide"))
        for _ in range(rng.randint(1, 3)):
            item.children.append(El(
                "incategory",
                {"category": self._ref("category", self.n_categories)}))
        mailbox = El("mailbox")
        for _ in range(rng.randint(0, MAIL_MAX)):
            mail = El("mail")
            mail.children += [
                self._leaf("from", self._name()),
                self._leaf("to", self._name()),
                self._leaf("date", self._date()),
                self._leaf("text", self._sentence(6)),
            ]
            mailbox.children.append(mail)
        item.children.append(mailbox)
        return item

    def _description(self) -> El:
        description = El("description")
        description.children.append(self._leaf("text", self._sentence(5)))
        for _ in range(self.rng.randint(0, KEYWORD_MAX)):
            description.children.append(self._leaf("keyword", self._word()))
        return description

    def _categories(self) -> El:
        categories = El("categories")
        for number in range(self.n_categories):
            category = El("category", {"id": f"category{number}"})
            category.children.append(
                self._leaf("name", f"{self._word()} {number}"))
            category.children.append(self._description())
            categories.children.append(category)
        return categories

    def _people(self) -> El:
        people = El("people")
        people.children += [self._person(n) for n in range(self.n_persons)]
        return people

    def _person(self, number: int) -> El:
        rng = self.rng
        person = El("person", {"id": f"person{number}"})
        person.children.append(self._leaf("name", self._name()))
        person.children.append(
            self._leaf("emailaddress", f"mailto:u{number}@example.org"))
        if self._maybe(P_PHONE):
            person.children.append(self._leaf(
                "phone", f"+1 ({rng.randint(100, 999)}) "
                f"{rng.randint(1000000, 9999999)}"))
        if self._maybe(P_ADDRESS):
            address = El("address")
            address.children.append(self._leaf(
                "street", f"{rng.randint(1, 99)} {self._word().title()} St"))
            address.children.append(self._leaf("city", rng.choice(CITIES)))
            address.children.append(
                self._leaf("country", rng.choice(COUNTRIES)))
            address.children.append(
                self._leaf("zipcode", rng.randint(10000, 99999)))
            person.children.append(address)
        if self._maybe(P_HOMEPAGE):
            person.children.append(
                self._leaf("homepage", f"https://example.org/u{number}"))
        if self._maybe(P_CREDITCARD):
            person.children.append(self._leaf("creditcard", " ".join(
                str(rng.randint(1000, 9999)) for _ in range(4))))
        profile = El("profile")
        if self._maybe(P_INCOME):
            profile.attrs["income"] = str(round(rng.uniform(9000, 240000), 2))
        for _ in range(rng.randint(0, INTEREST_MAX)):
            profile.children.append(El(
                "interest",
                {"category": self._ref("category", self.n_categories)}))
        if self._maybe(P_EDUCATION):
            profile.children.append(
                self._leaf("education", rng.choice(EDUCATIONS)))
        if self._maybe(P_GENDER):
            profile.children.append(
                self._leaf("gender", rng.choice(("male", "female"))))
        profile.children.append(
            self._leaf("business", rng.choice(("Yes", "No"))))
        if self._maybe(P_AGE):
            profile.children.append(self._leaf("age", rng.randint(18, 70)))
        person.children.append(profile)
        if self._maybe(P_WATCHES):
            watches = El("watches")
            for _ in range(rng.randint(1, WATCH_MAX)):
                watches.children.append(El(
                    "watch",
                    {"open_auction": self._ref("open_auction", self.n_open)}))
            person.children.append(watches)
        return person

    def _open_auctions(self) -> El:
        auctions = El("open_auctions")
        auctions.children += [
            self._open_auction(n) for n in range(self.n_open)
        ]
        return auctions

    def _n_bidders(self) -> int:
        count = 0
        while count < BIDDER_MAX and self.rng.random() < (
            BIDDER_P if count else 0.85
        ):
            count += 1
        return count

    def _open_auction(self, number: int) -> El:
        rng = self.rng
        auction = El("open_auction", {"id": f"open_auction{number}"})
        initial = round(rng.uniform(1, 300), 2)
        auction.children.append(self._leaf("initial", initial))
        if self._maybe(P_RESERVE):
            auction.children.append(
                self._leaf("reserve", round(initial * 1.5, 2)))
        current = initial
        for _ in range(self._n_bidders()):
            bidder = El("bidder")
            bidder.children.append(self._leaf("date", self._date()))
            bidder.children.append(self._leaf("time", self._time()))
            bidder.children.append(El(
                "personref", {"person": self._ref("person", self.n_persons)}))
            increase = round(rng.uniform(1.5, 30), 2)
            current = round(current + increase, 2)
            bidder.children.append(self._leaf("increase", increase))
            auction.children.append(bidder)
        auction.children.append(self._leaf("current", current))
        if self._maybe(0.3):
            auction.children.append(self._leaf("privacy", "Yes"))
        auction.children.append(
            El("itemref", {"item": self._ref("item", self.n_items)}))
        auction.children.append(
            El("seller", {"person": self._ref("person", self.n_persons)}))
        auction.children.append(self._annotation(deep=False))
        auction.children.append(self._leaf("quantity", rng.randint(1, 10)))
        auction.children.append(
            self._leaf("type", rng.choice(AUCTION_TYPES)))
        interval = El("interval")
        interval.children.append(self._leaf("start", self._date()))
        interval.children.append(self._leaf("end", self._date()))
        auction.children.append(interval)
        return auction

    def _closed_auctions(self) -> El:
        rng = self.rng
        auctions = El("closed_auctions")
        for number in range(self.n_closed):
            auction = El("closed_auction", {"id": f"closed_auction{number}"})
            auction.children += [
                El("seller", {"person": self._ref("person", self.n_persons)}),
                El("buyer", {"person": self._ref("person", self.n_persons)}),
                El("itemref", {"item": self._ref("item", self.n_items)}),
            ]
            auction.children.append(
                self._leaf("price", round(rng.uniform(5, 400), 2)))
            auction.children.append(self._leaf("date", self._date()))
            auction.children.append(self._leaf("quantity", rng.randint(1, 5)))
            auction.children.append(
                self._leaf("type", rng.choice(AUCTION_TYPES)))
            auction.children.append(self._annotation(deep=True))
            auctions.children.append(auction)
        return auctions

    def _annotation(self, deep: bool) -> El:
        annotation = El("annotation")
        annotation.children.append(
            El("author", {"person": self._ref("person", self.n_persons)}))
        description = El("description")
        if deep and self._maybe(P_PARLIST):
            # the deep chain x15/x16 walk:
            # description/parlist/listitem/text/keyword
            parlist = El("parlist")
            for _ in range(self.rng.randint(1, 2)):
                listitem = El("listitem")
                text = El("text", text=self._sentence(4))
                text.children.append(self._leaf("keyword", self._word()))
                listitem.children.append(text)
                parlist.children.append(listitem)
            description.children.append(parlist)
        else:
            description.children.append(self._leaf("text", self._sentence(4)))
        annotation.children.append(description)
        annotation.children.append(
            self._leaf("happiness", self.rng.randint(1, 10)))
        return annotation


def generate_xml(factor: float, seed: int) -> str:
    """The XML text of the auction document for ``(factor, seed)``."""
    out: List[str] = []
    _write(Generator(factor, seed).site(), 0, out)
    return "\n".join(out)
