"""Key-popularity and seed-dataset generators.

The datasets line up with the paper's motivating content types:

* ``catalog_dataset`` -- an e-commerce product catalogue for the KV store
  ("product catalogues for e-commerce", Section 6);
* ``filesystem_dataset`` -- a source-tree-like file system exercising
  ``read``/``grep`` (Section 2's examples);
* ``publications_dataset`` -- an academic publications database for MiniDB
  ("academic, medical and legal databases", Section 6).
"""

from __future__ import annotations

import random

from repro.content.minidb import DBCreateTable, DBInsert
from repro.content.queries import Operation


class ZipfKeys:
    """Zipf-distributed key popularity over ``key_{0..n-1}``.

    Uses the classic inverse-rank weights ``1/rank^s``; sampling is by
    bisection over the cumulative weights, O(log n) per draw.
    """

    def __init__(self, num_keys: int, skew: float = 1.0,
                 prefix: str = "key") -> None:
        if num_keys <= 0:
            raise ValueError(f"need at least one key, got {num_keys}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        self.num_keys = num_keys
        self.skew = skew
        self.prefix = prefix
        weights = [1.0 / (rank ** skew) for rank in range(1, num_keys + 1)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cumulative = cumulative

    def key_name(self, index: int) -> str:
        return f"{self.prefix}_{index:06d}"

    def sample(self, rng: random.Random) -> str:
        """Draw one key, rank 0 being the most popular."""
        import bisect

        u = rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        index = min(index, self.num_keys - 1)
        return self.key_name(index)

    def all_keys(self) -> list[str]:
        return [self.key_name(i) for i in range(self.num_keys)]


_CATEGORIES = ("books", "music", "garden", "tools", "toys", "sports")

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango",
)


def catalog_dataset(num_products: int, rng: random.Random) -> dict[str, object]:
    """Product-catalogue items for a :class:`KeyValueStore`.

    Keys are ``catalog/<category>/<sku>``; values are plain dicts with a
    name, price and stock level.  Prices live under a separate
    ``price/<sku>`` numeric key so KV aggregates have numbers to fold.
    """
    items: dict[str, object] = {}
    for index in range(num_products):
        category = _CATEGORIES[index % len(_CATEGORIES)]
        sku = f"sku{index:06d}"
        price = round(rng.uniform(1.0, 500.0), 2)
        items[f"catalog/{category}/{sku}"] = {
            "name": f"{rng.choice(_WORDS)}-{rng.choice(_WORDS)}",
            "price": price,
            "stock": rng.randrange(0, 1000),
        }
        items[f"price/{sku}"] = price
    return items


def filesystem_dataset(num_files: int, rng: random.Random,
                       lines_per_file: int = 20) -> dict[str, str]:
    """Source-tree-like files with greppable content."""
    files: dict[str, str] = {}
    for index in range(num_files):
        directory = f"/src/{_WORDS[index % len(_WORDS)]}"
        lines = []
        for line_number in range(lines_per_file):
            words = " ".join(rng.choice(_WORDS) for _ in range(6))
            marker = "TODO" if rng.random() < 0.1 else "note"
            lines.append(f"{marker} {line_number}: {words}")
        files[f"{directory}/file{index:05d}.txt"] = "\n".join(lines)
    return files


def publications_dataset(num_papers: int,
                         rng: random.Random) -> list[Operation]:
    """Write operations seeding an academic-publications MiniDB.

    Two tables: ``papers(id, title, year, venue, author_id)`` and
    ``authors(id, name, institution)`` -- enough for the join/aggregate
    queries the benchmarks run.
    """
    num_authors = max(1, num_papers // 4)
    ops: list[Operation] = [
        DBCreateTable(table="authors",
                      columns=("id", "name", "institution")),
        DBCreateTable(table="papers",
                      columns=("id", "title", "year", "venue", "author_id")),
    ]
    authors = [
        {"id": i,
         "name": f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}",
         "institution": f"univ-{i % 10}"}
        for i in range(num_authors)
    ]
    papers = [
        {"id": i,
         "title": " ".join(rng.choice(_WORDS) for _ in range(4)),
         "year": rng.randrange(1995, 2004),
         "venue": rng.choice(("hotos", "sosp", "osdi", "usenix")),
         "author_id": rng.randrange(num_authors)}
        for i in range(num_papers)
    ]
    ops.append(DBInsert.from_dicts("authors", authors))
    ops.append(DBInsert.from_dicts("papers", papers))
    return ops
