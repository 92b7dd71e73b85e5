"""Regenerate the shipped example system files, the package data in
src/convexnmpc/data.

Run from the repository root: python tools/make_example_configs.py
"""
import json
import math
import pathlib

DATA = (pathlib.Path(__file__).resolve().parent.parent
        / "src" / "convexnmpc" / "data")

A = [[1.0, 0.1], [0.1, 1.0]]
B = [0.01, 0.05]
U = [-2.0, 2.0]

BOX_C = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
BOX_D = [2.0, 2.0, 2.0, 2.0]


def ex1():
    # quadratic gain, single region covering the whole box
    return {
        "A": A, "b": B,
        "g": {"kind": "quadratic",
              "H": [[3.0 / 32.0, -1.0 / 8.0], [-1.0 / 8.0, 3.0 / 32.0]],
              "w": [0.0, 0.0], "d": -2.0},
        "regions": [{"C": BOX_C, "d": BOX_D, "sign": -1}],
        "u": U,
    }


def ex2():
    # sinusoidal gain, three slabs split at its zero hyperplanes
    four_thirds = 4.0 / 3.0
    return {
        "A": A, "b": B,
        "g": {"kind": "sinusoid", "amp": 4.0, "freq": 3.0 * math.pi / 8.0,
              "dir": [1.0, -1.0], "phase": 0.0},
        "regions": [
            {"C": BOX_C + [[1.0, -1.0], [-1.0, 1.0]],
             "d": BOX_D + [four_thirds, four_thirds], "sign": 1},
            {"C": BOX_C + [[1.0, -1.0], [-1.0, 1.0]],
             "d": BOX_D + [-four_thirds, 4.0], "sign": -1},
            {"C": BOX_C + [[-1.0, 1.0], [1.0, -1.0]],
             "d": BOX_D + [-four_thirds, 4.0], "sign": -1},
        ],
        "u": U,
    }


def ex3():
    # stand-in piecewise-affine gain: square pyramid of height 4 over the
    # center cell, draining linearly to -4 at the outer corners; 12 affine
    # pieces, 9 curvature/sign-consistent regions on a 3x3 cell grid
    def piece(C, d, w, d0):
        return {"polytope": {"C": C, "d": d}, "w": w, "d": d0}

    pieces = [
        # center pyramid faces (east, north, west, south)
        piece([[-1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]], [0.0, 0.0, 1.0],
              [-4.0, 0.0], 4.0),
        piece([[1.0, -1.0], [-1.0, -1.0], [0.0, 1.0]], [0.0, 0.0, 1.0],
              [0.0, -4.0], 4.0),
        piece([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [0.0, 0.0, 1.0],
              [4.0, 0.0], 4.0),
        piece([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]], [0.0, 0.0, 1.0],
              [0.0, 4.0], 4.0),
        # edge cells
        piece([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
              [-1.0, 2.0, 1.0, 1.0], [-2.0, 0.0], 2.0),
        piece([[0.0, -1.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]],
              [-1.0, 2.0, 1.0, 1.0], [0.0, -2.0], 2.0),
        piece([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
              [-1.0, 2.0, 1.0, 1.0], [2.0, 0.0], 2.0),
        piece([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
              [-1.0, 2.0, 1.0, 1.0], [0.0, 2.0], 2.0),
        # corner cells (NE, NW, SW, SE)
        piece([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
              [-1.0, 2.0, -1.0, 2.0], [-2.0, -2.0], 4.0),
        piece([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
              [-1.0, 2.0, -1.0, 2.0], [2.0, -2.0], 4.0),
        piece([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
              [-1.0, 2.0, -1.0, 2.0], [2.0, 2.0], 4.0),
        piece([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
              [-1.0, 2.0, -1.0, 2.0], [-2.0, 2.0], 4.0),
    ]
    unit = [1.0, 1.0, 1.0, 1.0]
    regions = [
        {"C": BOX_C, "d": unit, "sign": 1},                       # center
        {"C": pieces[4]["polytope"]["C"], "d": pieces[4]["polytope"]["d"],
         "sign": -1},                                             # east
        {"C": pieces[5]["polytope"]["C"], "d": pieces[5]["polytope"]["d"],
         "sign": -1},                                             # north
        {"C": pieces[6]["polytope"]["C"], "d": pieces[6]["polytope"]["d"],
         "sign": -1},                                             # west
        {"C": pieces[7]["polytope"]["C"], "d": pieces[7]["polytope"]["d"],
         "sign": -1},                                             # south
        {"C": pieces[8]["polytope"]["C"], "d": pieces[8]["polytope"]["d"],
         "sign": -1},                                             # NE
        {"C": pieces[9]["polytope"]["C"], "d": pieces[9]["polytope"]["d"],
         "sign": -1},                                             # NW
        {"C": pieces[10]["polytope"]["C"], "d": pieces[10]["polytope"]["d"],
         "sign": -1},                                             # SW
        {"C": pieces[11]["polytope"]["C"], "d": pieces[11]["polytope"]["d"],
         "sign": -1},                                             # SE
    ]
    return {"A": A, "b": B, "g": {"kind": "pwa", "pieces": pieces},
            "regions": regions, "u": U}


def main():
    configs = {"ex1": ex1(), "ex2": ex2(), "ex3": ex3()}
    for name, obj in configs.items():
        path = DATA / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
