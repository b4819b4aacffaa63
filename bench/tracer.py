"""In-memory span tracer for the benchmark's traced run.

Each traced entry point is wrapped where its caller looks the name up (a
module global or a class attribute), so the program itself is unchanged.
Coarse calls are kept as spans ``(id, name, parent id, start, end)``; hot
leaves, such as the simulator's millions of ``Polynomial.evaluate`` calls,
are only aggregated.  Every call, span or leaf, adds to per-name totals of
calls, busy time and self time (busy time minus the time of traced
children); spans also add to a count per (name, parent name) pair.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}        # name -> [calls, seconds, self seconds]
        self.pairs: dict[tuple[str, str], int] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        # frame: [name, span id, child seconds]; the root frame has id 0
        self._stack: list[list] = [["", 0, 0.0]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        self.durations.setdefault(key, []).append(value)

    def wrap(self, owner, attr: str, name: str, span: bool = True, on_exit=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        ``on_exit(args, kwargs, result, seconds)`` runs after each call that
        returns normally, to record counts measured at the same boundary.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack, pairs, spans, clock = self._stack, self.pairs, self.spans, time.perf_counter
        tot = self.totals[name] = [0, 0.0, 0.0]

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[1]
            frame = [name, sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[2] += dt
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - frame[2]
                if span:
                    key = (name, parent[0])
                    pairs[key] = pairs.get(key, 0) + 1
                    spans.append((sid, name, parent[1], t0, t1))
            if on_exit is not None:
                on_exit(args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def children(self, parent_name: str, name: str) -> int:
        """Calls of span ``name`` made directly from span ``parent_name``."""
        return self.pairs.get((name, parent_name), 0)

    def span_list(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def dump(self) -> dict:
        return {
            "spans": [{"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4]}
                      for s in self.spans],
            "totals": {n: {"calls": c, "s": s, "self_s": own}
                       for n, (c, s, own) in self.totals.items()},
            "pairs": [{"name": n, "parent": p, "calls": c}
                      for (n, p), c in sorted(self.pairs.items())],
            "counts": self.counts,
        }

