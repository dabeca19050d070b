"""The paper's reference values for each benchmark workload, and the checker.

Each pipeline reports its outputs under the keys used here; a run is exact
only when every key is present and equal.  Big integers stay Python ints.
"""

EXPECTED = {
    "p23-deg3": {
        "points": 81,
        "reference_cubic_split": [54, 24, 3],
        "vertices": {"1": 21, "2": 169, "3": 1498},
        "edges": 33946,
        "cliques": 3689594,
        "cell (1,0,4)": 180822,
        "cell (0,1,11)": 2,
        "U (2,1,1,1)": 229,
        "io mismatches": [],
    },
    "p235-deg2": {
        "points": 183,
        "vertices": {"1": 99, "2": 1927},
        "split degree 2": 1020,
        "edges": 64212,
        "cliques": 24050204,
        "U (2,1,1,1)": 2947,
        "io mismatches": [],
    },
    "p2357-split": {
        "points": 375,
        "max height": 4375,
        "degree-1 row": [1, 375, 9900, 73000, 232260, 383712, 356916,
                         190620, 55935, 7425],
        "packets": 13,
        "packet mass": "45/8",
        "io mismatches": [],
    },
    "p2-gen": {
        "vertices": {"1": 3, "2": 15, "3": 0, "4": 108},
        "cell (1,3,0,2)": 3,
        "U (2,1,1,1)": 15,
        "fractal members failing membership": [],
        "fractal degrees at i=4": [128],
        "c_1000 over {2,3,5}": 3361607445659519,
        "named discriminants": {
            "big23": 2 ** 105 * 3 ** 533,
            "big235": -(2 ** 1046) * 3 ** 80 * 5 ** 104,
            "quartic-extremal": -(2 ** 184),
        },
        "named reports failing": [],
        "io mismatches": [],
    },
}


def check(observed: dict, expected: dict) -> list:
    """Every expected key whose observed value differs, as readable lines.

    A missing key is a mismatch too, so a pipeline that stops reporting a
    value fails instead of passing silently.
    """
    out = []
    for key, want in expected.items():
        if key not in observed:
            out.append(f"{key}: missing, want {_short(want)}")
        elif observed[key] != want:
            out.append(f"{key}: got {_short(observed[key])}, "
                       f"want {_short(want)}")
    return out


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
