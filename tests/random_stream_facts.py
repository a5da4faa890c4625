"""The two facts about CPython's Mersenne Twister that bulk draws rest on.

`oracle._randbelow_words` reads the stream that `random.Random.randrange(p)`
would read, many words at a time.  That gives the same draws when:

1. `randrange(p)` takes the top k = p.bit_length() bits of the next 32-bit
   word, and takes the next word while they are >= p;
2. `getrandbits(32 * W)` returns the next W words, the first in the lowest
   bits, and leaves the stream where W calls of `getrandbits(32)` would.

Only the standard library is used, so the check runs on an interpreter that
has neither numpy nor pytest: `python tests/random_stream_facts.py`.  The
tier-1 suite runs it too (`tests/test_oracle.py`).
"""

import random
import sys

PRIMES = (2, 3, 5, 7, 13, 31, 257, 65521)


def check_facts(seeds=(0, 1, 17)) -> int:
    """Raise AssertionError if a fact fails; return the draws compared."""
    compared = 0
    for seed in seeds:
        for p in PRIMES:
            rng = random.Random(seed)
            rng.random(), rng.randrange(1000)  # start mid-stream
            start = rng.getstate()
            plain = random.Random()
            plain.setstate(start)
            words = 64
            stream = rng.getrandbits(32 * words)
            wordwise = random.Random()
            wordwise.setstate(start)
            assert [stream >> (32 * i) & 0xFFFFFFFF
                    for i in range(words)] == [wordwise.getrandbits(32)
                                               for _ in range(words)]
            assert wordwise.getstate() == rng.getstate()  # fact 2
            k = p.bit_length()
            tops = [stream >> (32 * i + 32 - k) & ((1 << k) - 1)
                    for i in range(words)]
            taken = [i for i, top in enumerate(tops) if top < p]
            assert [plain.randrange(p) for _ in taken] == [tops[i]
                                                           for i in taken]
            replay = random.Random()
            replay.setstate(start)
            replay.getrandbits(32 * (taken[-1] + 1))
            assert replay.getstate() == plain.getstate()  # fact 1
            compared += len(taken)
    return compared


if __name__ == "__main__":
    n = check_facts()
    print(f"ok: {n} draws of randrange agree on Python "
          f"{sys.version.split()[0]}")
