"""Fixed pure-Python work that gauges how fast the host runs Python right now.

run.py starts this between passes, in a fresh isolated interpreter (``-I``),
and divides each pass's wall time by the calibration time around it. On a
shared host the speed of one core drifts by a third over minutes; that drift
slows this program and the bomdiff commands alike, so the ratio keeps only
what the commands themselves cost. It imports nothing from bomdiff and reads
no input, so no change to bomdiff moves its time.

The mix mirrors the commands: character matching over short names (the
fuzzy kernel), dict and object churn (parse, normalize, graph build), a JSON
round trip and sorting. It prints a checksum, which never changes.

    python3 -I perfbench/calib.py
"""

import json


def names(n: int, seed: int) -> list[str]:
    letters = "abcdefghiklmnoprstuvz-"
    out, x = [], seed
    for _ in range(n):
        chars = []
        for _ in range(11):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            chars.append(letters[x % len(letters)])
        out.append("".join(chars))
    return out


def matches(a: str, b: str) -> int:
    window = max(len(a), len(b)) // 2 - 1
    used = [False] * len(b)
    m = 0
    for i, c in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not used[j] and b[j] == c:
                used[j] = True
                m += 1
                break
    return m


def main() -> None:
    left, right = names(200, 1), names(200, 2)
    total = sum(matches(a, b) for a in left for b in right)

    nodes = {}
    for i, name in enumerate(names(24000, 3)):
        nodes[f"{name}@{i % 97}"] = {"name": name, "parent": i // 4, "children": [],
                                     "hashes": [("sha256", f"{i:064x}")]}
    keys = list(nodes)
    for i, key in enumerate(keys[1:], 1):
        nodes[keys[i // 4]]["children"].append(key)
    doc = json.loads(json.dumps(list(nodes.values())))
    total += sum(len(n["children"]) for n in doc)
    total += len(sorted(keys, key=lambda k: (k[::-1], len(k))))
    print(total)


if __name__ == "__main__":
    main()
