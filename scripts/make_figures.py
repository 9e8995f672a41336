"""Render a gallery of the built-in leaf families to SVG files.

Usage: python scripts/make_figures.py [--out-dir figures]
"""

import argparse
import os

from umbilic import (
    Transversal,
    Viewport,
    builtin_route,
    extend_slice,
    render_svg,
    synthesize,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="figures")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    jobs = [
        ("pencil.svg", builtin_route("pencil", window=(-2, 2), n=41), 0),
        ("horospherical.svg", builtin_route("horospherical", window=(-2, 1), n=25), 0),
        ("totally_geodesic.svg", builtin_route("totally_geodesic", window=(-2, 1.2), n=33), 0),
        (
            "hypercycle_constant.svg",
            builtin_route(
                "constant",
                transversal=Transversal.hypercycle(0.9),
                c=-0.3,
                window=(-1.5, 1.0),
                n=21,
            ),
            4,
        ),
        (
            "hypercycle_max.svg",
            builtin_route(
                "custom_constant_max",
                transversal=Transversal.hypercycle(0.7),
                window=(-1.5, 1.0),
                n=17,
            ),
            0,
        ),
    ]
    viewport = Viewport(x_min=-4.0, x_max=4.0, y_max=4.0)
    for name, route, extension in jobs:
        slice_ = synthesize(route)
        if extension:
            slice_ = extend_slice(slice_, extension)
        path = os.path.join(args.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_svg(slice_, viewport))
        total = slice_.t.size
        print(f"wrote {path} ({total} leaves)")


if __name__ == "__main__":
    main()
