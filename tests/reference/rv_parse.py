"""An ``rv`` body the way ``VSSManager.parse_rv`` read it before a batch
stayed its wire tuple: a dict ``{monitor: value}``, every entry validated,
the last entry for a monitor winning.

``parse_rv`` now keeps an honest body (``int`` monitors, strictly
ascending) as it is and canonicalises any other once, read through a monitor
mask.  Fed the same bodies, it must accept and reject alike and hold the
same value for every monitor (``tests/test_rv_parse.py``).  No import from
``repro``."""


def parse_rv(body, n, prime):
    if not isinstance(body, tuple):
        return None
    batch = {}
    for item in body:
        if (
            not isinstance(item, tuple)
            or len(item) != 2
            or not isinstance(item[0], int)
            or not 1 <= item[0] <= n
            or not (isinstance(item[1], int) and 0 <= item[1] < prime)
        ):
            return None
        batch[item[0]] = item[1]
    return batch
