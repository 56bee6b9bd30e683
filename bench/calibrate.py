"""Fixed reference program that measures how fast the host runs Python now.

It imports nothing from crystalgraphs, so a change to the library never
changes its cost.  Its two halves resemble the library's two kinds of hot
loop, which a busy host slows by different amounts:

* products of sparse polynomials held as small dicts with tuple keys, where
  most term pairs merge into few output terms (the operator layer);
* building and walking a table of 200,000 small objects, about 90 MB at its
  peak (crystal builds and tensor decompositions).

``run.py`` launches it as a fresh interpreter before every workload launch
and once after the last, and scales the run's times by how long it took
(see README.md).  It prints a checksum, which ``run.py`` checks, so that a
broken calibration can never pass as a fast one.
"""

PRODUCT_ROUNDS = 200
TABLE_ROUNDS = 2
TABLE_SIZE = 200_000


def product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            value = out.get(key, 0) + x * y
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


def table_walk(n: int) -> int:
    table = {}
    for i in range(n):
        table[(i % 1000, i // 1000, i * 7 % 13)] = [i, (i, i + 1)]
    total = 0
    for key, value in table.items():
        total += value[0] + key[2]
    return total


def main() -> None:
    a = {(n % 13, n // 13): (n * 7919) % 17 - 8 for n in range(120)}
    b = {(n % 11, n // 11): (n * 104729) % 19 - 9 for n in range(120)}
    checksum = sum(len(product(a, b)) for _ in range(PRODUCT_ROUNDS))
    checksum += sum(table_walk(TABLE_SIZE) for _ in range(TABLE_ROUNDS))
    print(checksum)


if __name__ == "__main__":
    main()
