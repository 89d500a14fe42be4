"""Print the sha256 of a sweep file's certificates.

Usage: python .github/cert_digest.py FILE

The digest covers the sorted [n, certificate] pairs only, so it does not
depend on record order, timings or the tool version.
"""

import hashlib
import json
import sys

with open(sys.argv[1]) as fh:
    records = sorted((json.loads(line) for line in fh), key=lambda r: r["n"])
pairs = [[r["n"], r["certificate"]] for r in records]
print(hashlib.sha256(json.dumps(pairs, sort_keys=True).encode()).hexdigest())
