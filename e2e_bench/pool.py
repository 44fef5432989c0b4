"""The seeded request pool and the serve workloads' request stream.

The pool is every suite routine (frontend source) plus ``FUZZ_SLOTS``
fuzz CFGs from :func:`repro.bench.serve.fuzz_cfg_source` (printed IR).

Fuzz CFGs are sized by their *live* block count (blocks reachable from
the entry), not by the nominal block count the generator is given:
random branch targets leave most nominal blocks unreachable, and the
compile cost follows the live count, steeply: on a 2-CPU host about
20 ms at 8 live blocks, 0.1 s at 24 and anywhere from 0.3 s to 40 s
at 32, almost all of it in reassociation's forward propagation.  A
fixed live-size schedule, mostly small and capped at ``MAX_LIVE``,
keeps the pool's cost the same from seed to seed and every compile
far from that cliff; the seed picks the nominal size (10-100 blocks,
small enough that drawing candidates stays cheap) and the code.
"""

from __future__ import annotations

import random
import re
from collections import Counter

FUZZ_SLOTS = 30
MIN_LIVE, MAX_LIVE = 3, 12
MIN_NOMINAL, MAX_NOMINAL = 10, 100

#: One fuzz request in this many of the serve stream is never seen before.
NEW_EVERY = 20


def live_schedule(slots: int = FUZZ_SLOTS) -> list[int]:
    """Live-block counts, log-uniform over MIN_LIVE..MAX_LIVE: most small."""
    return [
        round(MIN_LIVE * (MAX_LIVE / MIN_LIVE) ** (i / (slots - 1)))
        for i in range(slots)
    ]


_LABEL = re.compile(r"^(\w+):$", re.M)
_TARGETS = re.compile(r"-> (.*)$", re.M)


def live_blocks(text: str) -> int:
    """Blocks reachable from ``entry``, not counting ``entry`` and ``out``.

    Reads the printed IR directly (a block header line, then its
    terminator's ``-> a, b`` targets): the pool draws hundreds of
    candidates, and a full parse of each would dominate set-up.
    """
    succ = {}
    headers = list(_LABEL.finditer(text))
    for header, following in zip(headers, headers[1:] + [None]):
        body = text[header.end(): following.start() if following else len(text)]
        succ[header.group(1)] = [
            label.strip()
            for targets in _TARGETS.findall(body)
            for label in targets.split(",")
        ]
    seen, stack = {"entry"}, ["entry"]
    while stack:
        for label in succ.get(stack.pop(), ()):
            if label not in seen:
                seen.add(label)
                stack.append(label)
    return len(seen - {"entry", "out"})


def fuzz_requests(first: int, rng: random.Random) -> list[dict]:
    """One fuzz CFG per :func:`live_schedule` slot, named from ``fuzz<first>``.

    Candidates get a log-uniform nominal size in [10, 100]; each fills
    the next slot still open for its live count and the rest are
    dropped, so the result depends only on ``rng``'s state.
    """
    from repro.bench.serve import fuzz_cfg_source

    wanted = Counter(live_schedule())
    requests: list[dict] = []
    while wanted:
        index = first + len(requests)
        nominal = round(MIN_NOMINAL * (MAX_NOMINAL / MIN_NOMINAL) ** rng.random())
        text = fuzz_cfg_source(index, nominal, rng)
        live = live_blocks(text)
        if not wanted[live]:
            continue
        wanted[live] -= 1
        wanted += Counter()  # drop filled slots
        requests.append({
            "id": f"fuzz{index}",
            "kind": "ir",
            "text": text,
            "live": live,
            "nominal": nominal,
            "args": [
                [rng.randrange(-9, 10), rng.randrange(-9, 10)] for _ in range(3)
            ],
        })
    return requests


def build_pool(seed: int) -> list[dict]:
    """Suite sources first (fixed), then the seeded fuzz CFGs."""
    from repro.bench.suite import suite_routines

    pool = [
        {"id": routine.name, "kind": "source", "text": routine.source}
        for routine in suite_routines()
    ]
    return pool + fuzz_requests(0, random.Random(f"pool:{seed}"))


class Stream:
    """The serve workloads' seeded request stream over ``pool``.

    Each request repeats a uniformly drawn pool entry, except that one
    in ``NEW_EVERY`` (on average) is a never-seen fuzz CFG drawn like the
    pool's.  :meth:`prepare` makes the never-seen ones ahead of the
    timed window; :meth:`next` makes more if the window outruns them.
    Not thread-safe: callers lock.
    """

    def __init__(self, pool: list[dict], seed: int) -> None:
        self.pool = pool
        self.rng = random.Random(f"stream:{seed}")
        self.fresh_rng = random.Random(f"fresh:{seed}")
        self.fresh: list[dict] = []
        self.used = 0

    def prepare(self, count: int) -> None:
        while len(self.fresh) < count:
            self.fresh += fuzz_requests(
                FUZZ_SLOTS + len(self.fresh), self.fresh_rng
            )

    def next(self) -> dict:
        if self.rng.randrange(NEW_EVERY) == 0:
            self.prepare(self.used + 1)
            self.used += 1
            return self.fresh[self.used - 1]
        return self.pool[self.rng.randrange(len(self.pool))]
