"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program is made here from the run's
seed, so the same seed gives the same inputs.  The generators use only
the standard library: the key/value model the checks compare against
is the benchmark's own, not the program's.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: redis-repair: keys stored by the long tracing workload
REDIS_KEYS = 300
#: redis-ycsb: records inserted by the Load phase, then workload-A ops
YCSB_RECORDS = 300
YCSB_OPS = 600
YCSB_VALUE_SIZE = 96
#: redis-ycsb: operations per unit of work (the stream is 900 long)
YCSB_SEGMENT = 300
ZIPF_THETA = 0.99

_ALPHABET = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

PUT, GET, DELETE, SCAN = "put", "get", "delete", "scan"


def case_order(case_ids: Sequence[str], seed: int) -> List[str]:
    """The corpus cases in a seeded order."""
    order = list(case_ids)
    random.Random(f"cases/{seed}").shuffle(order)
    return order


def _value(rng: random.Random, size: int) -> bytes:
    return bytes(rng.choice(_ALPHABET) for _ in range(size))


def _distinct_keys(rng: random.Random, count: int, prefix: bytes) -> List[bytes]:
    numbers = rng.sample(range(10**12), count)
    return [prefix + b"%012d" % n for n in numbers]


@dataclass(frozen=True)
class KVOp:
    kind: str
    key: bytes = b""
    value: bytes = b""


def redis_trace_ops(seed: int, keys: int = REDIS_KEYS) -> List[KVOp]:
    """The long tracing workload for redis-repair.

    Inserts every key, rewrites a tenth of them in place (same length,
    so the store updates the entry instead of reallocating), deletes a
    twentieth, reads every key back (deleted ones must miss) and ends
    with a scan, so the trace covers every durability path of the store.
    """
    rng = random.Random(f"redis/{seed}")
    names = _distinct_keys(rng, keys, b"key:")
    values = {name: _value(rng, rng.randrange(32, 65)) for name in names}
    ops = [KVOp(PUT, name, values[name]) for name in names]
    shuffled = names[:]
    rng.shuffle(shuffled)
    updated = shuffled[: keys // 10]
    deleted = shuffled[keys // 10: keys // 10 + keys // 20]
    ops += [KVOp(PUT, name, _value(rng, len(values[name]))) for name in updated]
    ops += [KVOp(DELETE, name) for name in deleted]
    rng.shuffle(shuffled)
    ops += [KVOp(GET, name) for name in shuffled]
    ops.append(KVOp(SCAN))
    return ops


def _zipf_cdf(count: int, theta: float) -> List[float]:
    total = 0.0
    cdf = []
    for rank in range(1, count + 1):
        total += 1.0 / rank ** theta
        cdf.append(total)
    return [c / total for c in cdf]


def ycsb_ops(
    seed: int,
    records: int = YCSB_RECORDS,
    operations: int = YCSB_OPS,
    value_size: int = YCSB_VALUE_SIZE,
) -> Tuple[List[KVOp], List[KVOp]]:
    """YCSB Load (every record inserted once) and workload A
    (50% read / 50% update, scrambled-zipfian key choice)."""
    rng = random.Random(f"ycsb/{seed}")
    names = _distinct_keys(rng, records, b"user")
    load = [KVOp(PUT, name, _value(rng, value_size)) for name in names]
    popularity = names[:]
    rng.shuffle(popularity)
    cdf = _zipf_cdf(records, ZIPF_THETA)
    # exactly half reads, in a seeded order, so seeds differ in keys and
    # interleaving but not in the mix
    kinds = [GET, PUT] * (operations // 2) + [GET] * (operations % 2)
    rng.shuffle(kinds)
    run = []
    for kind in kinds:
        name = popularity[min(bisect.bisect_left(cdf, rng.random()), records - 1)]
        if kind == GET:
            run.append(KVOp(GET, name))
        else:
            run.append(KVOp(PUT, name, _value(rng, value_size)))
    return load, run


class KVModel:
    """The benchmark's own key -> value model of the store."""

    def __init__(self) -> None:
        self.data: Dict[bytes, bytes] = {}

    def apply(self, op: KVOp):
        """Apply a write; for a read, return the value the store must return."""
        if op.kind == PUT:
            self.data[op.key] = op.value
        elif op.kind == DELETE:
            self.data.pop(op.key, None)
        elif op.kind == GET:
            return self.data.get(op.key)
        return None
