"""The 23 XMark queries of Figure 15 and the benchmark's workloads.

The texts are the engine's Figure 15 suite (the XMark queries adapted to
the paper's XQuery fragment) as of commit f2ad235, kept here so the
benchmark's inputs do not change when the engine's copy does.
"""

from __future__ import annotations

QUERIES = {
    "x1": """
FOR $b IN document("auction.xml")//person
WHERE $b/@id = "person0"
RETURN <out>{$b/name/text()}</out>
""",
    "x2": """
FOR $b IN document("auction.xml")//open_auction
RETURN <increase>{$b/bidder/increase/text()}</increase>
""",
    "x3": """
FOR $p IN document("auction.xml")//person
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 2
  AND $p/@id = $o/bidder//@person
RETURN <bid><who>{$p/name/text()}</who>{$o/initial}</bid>
""",
    "x4": """
FOR $o IN document("auction.xml")//open_auction
WHERE $o/@id = "open_auction3" OR $o/@id = "open_auction7"
RETURN <history>{$o/initial/text()}</history>
""",
    "x5": """
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 0 AND $o/bidder/increase > 20
RETURN <hot>{$o/bidder}</hot>
""",
    "x6": """
FOR $r IN document("auction.xml")/site/regions
RETURN <cnt>{count($r//item)}</cnt>
""",
    "x7": """
FOR $s IN document("auction.xml")/site
RETURN <counts>
  <m>{count($s//mail)}</m>
  <i>{count($s//item)}</i>
  <d>{count($s//description)}</d>
</counts>
""",
    "x8": """
FOR $p IN document("auction.xml")//person
LET $a := FOR $t IN document("auction.xml")//closed_auction
          WHERE $t/buyer/@person = $p/@id
          RETURN <tr>{$t/price/text()}</tr>
RETURN <item person={$p/name/text()}>{count($a)}</item>
""",
    "x9": """
FOR $p IN document("auction.xml")//person
LET $a := FOR $t IN document("auction.xml")//closed_auction
          FOR $e IN document("auction.xml")//europe
          WHERE $t/buyer/@person = $p/@id
            AND $t/itemref/@item = $e/item/@id
          RETURN <tr>{$t/price/text()}</tr>
RETURN <person name={$p/name/text()}>{count($a)}</person>
""",
    "x10": """
FOR $c IN document("auction.xml")//category
LET $p := FOR $q IN document("auction.xml")//person
          WHERE $q/profile/interest/@category = $c/@id
          RETURN <personne>
            <statistiques>
              <sexe>{$q/profile/gender/text()}</sexe>
              <age>{$q/profile/age/text()}</age>
              <education>{$q/profile/education/text()}</education>
              <revenu>{$q/profile/@income}</revenu>
            </statistiques>
            <coordonnees>
              <nom>{$q/name/text()}</nom>
              <rue>{$q/address/street/text()}</rue>
              <ville>{$q/address/city/text()}</ville>
              <pays>{$q/address/country/text()}</pays>
              <reseau>
                <courrier>{$q/emailaddress/text()}</courrier>
                <pagePerso>{$q/homepage/text()}</pagePerso>
              </reseau>
            </coordonnees>
            <cartePaiement>{$q/creditcard/text()}</cartePaiement>
          </personne>
RETURN <categorie><id>{$c/name/text()}</id>{$p}</categorie>
""",
    "x11": """
FOR $p IN document("auction.xml")//person
LET $l := FOR $i IN document("auction.xml")//open_auction
          WHERE $p/profile/@income > $i/initial
          RETURN <it/>
RETURN <items name={$p/name/text()}>{count($l)}</items>
""",
    "x12": """
FOR $p IN document("auction.xml")//person
LET $l := FOR $i IN document("auction.xml")//open_auction
          WHERE $p/profile/@income > $i/initial
          RETURN <it/>
WHERE $p/profile/@income > 150000
RETURN <items person={$p/name/text()}>{count($l)}</items>
""",
    "x13": """
FOR $i IN document("auction.xml")/site/regions/australia/item
RETURN <item name={$i/name/text()}>{$i/description}</item>
""",
    "x14": """
FOR $i IN document("auction.xml")//item
WHERE contains($i//keyword, "gold")
RETURN <out>{$i/name/text()}</out>
""",
    "x15": """
FOR $a IN document("auction.xml")/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/text/keyword
RETURN $a
""",
    "x16": """
FOR $a IN document("auction.xml")/site/closed_auctions/closed_auction
WHERE $a/annotation/description/parlist/listitem/text/keyword = "gold"
RETURN <person id={$a/seller/@person}/>
""",
    "x17": """
FOR $p IN document("auction.xml")//person
WHERE $p/profile/gender = "female"
RETURN <out>{$p/name/text()}</out>
""",
    "x18": """
FOR $i IN document("auction.xml")//open_auction
WHERE $i/reserve > 100
RETURN <r>{$i/reserve/text()}</r>
""",
    "x19": """
FOR $b IN document("auction.xml")//item
ORDER BY $b/location Ascending
RETURN <item name={$b/name/text()}><loc>{$b/location/text()}</loc></item>
""",
    "x20": """
FOR $s IN document("auction.xml")/site/people
RETURN <result>
  <p>{count($s//person)}</p>
  <i>{count($s//interest)}</i>
  <w>{count($s//watch)}</w>
  <e>{count($s//emailaddress)}</e>
</result>
""",
    "Q1": """
FOR $p IN document("auction.xml")//person
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 5 AND $p//age > 25
  AND $p/@id = $o/bidder//@person
RETURN <person name={$p/name/text()}> $o/bidder </person>
""",
    "Q2": """
FOR $p IN document("auction.xml")//person
LET $a := FOR $o IN document("auction.xml")//open_auction
          WHERE count($o/bidder) > 5
            AND $p/@id = $o/bidder//@person
          RETURN <myauction> {$o/bidder}
                 <myquan>{$o/quantity/text()}</myquan>
                 </myauction>
WHERE $p//age > 25
  AND EVERY $i IN $a/myquan SATISFIES $i > 2
RETURN <person name={$p/name/text()}>{$a/bidder}</person>
""",
    "x10a": """
FOR $c IN document("auction.xml")//category
LET $p := FOR $q IN document("auction.xml")//person
          WHERE $q/profile/interest/@category = $c/@id
          RETURN <personne>
            <statistiques>
              <sexe>{$q/profile/gender/text()}</sexe>
              <age>{$q/profile/age/text()}</age>
              <education>{$q/profile/education/text()}</education>
              <revenu>{$q/profile/@income}</revenu>
            </statistiques>
            <coordonnees>
              <nom>{$q/name/text()}</nom>
              <rue>{$q/address/street/text()}</rue>
              <ville>{$q/address/city/text()}</ville>
              <pays>{$q/address/country/text()}</pays>
              <reseau>
                <courrier>{$q/emailaddress/text()}</courrier>
                <pagePerso>{$q/homepage/text()}</pagePerso>
              </reseau>
            </coordonnees>
            <cartePaiement>{$q/creditcard/text()}</cartePaiement>
          </personne>
WHERE $c/@id = "category0"
RETURN <categorie><id>{$c/name/text()}</id>{$p}</categorie>
""",
}

#: The queries whose LET feeds count() through a ``*`` nest-join.
LET_COUNT = ["x8", "x9", "x11", "x12"]

#: Figure 15 order.
FIGURE15_ORDER = list(QUERIES)

#: The short queries the service mix draws from (10–350 ms each).
SERVICE_MIX = [
    "x1", "x2", "x4", "x5", "x6", "x7", "x13", "x14", "x15", "x16", "x17",
    "x18", "x20",
]

WORKLOADS = {
    "xmark-core": [q for q in FIGURE15_ORDER if q not in LET_COUNT],
    "let-count": LET_COUNT,
    "service-mix": SERVICE_MIX,
}
