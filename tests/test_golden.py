"""Golden outputs: SHA-256 digests of what the CLI prints and renders.

Each case is a route document run in-process through ``umbilic.cli.main``
with ``validate``, ``leaves``, ``audit`` and ``render``.  A digest covers the exit code and
the full stdout (for ``render``, the SVG bytes instead of stdout, which
names the output path).  Any change to a verdict, report, leaf table or
figure changes a digest, so refactors that must keep outputs identical
are checked against these.  ``examples`` and a seeded ``lemma-check``
sweep, which read no document, are pinned the same way, and so are a few
reports and a document thousands of rows long (``LARGE``).

To print the table for a deliberate output change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from umbilic.cli import main
from umbilic.foliation import perturbed_invalid_route, random_valid_route
from umbilic.halfplane import Transversal
from umbilic.routes_io import dumps_document, route_to_document
from umbilic.validation import Route, profile_inverse

PHI = 0.9
B = math.sin(PHI)

COMMANDS = {
    "validate": ["validate"],
    "validate-c1": ["validate", "--c1"],
    "leaves": ["leaves"],
    "leaves-force": ["leaves", "--force"],
    "audit": ["audit"],
    "audit-force": ["audit", "--force"],
}


def _closed(name, transversal, **params):
    doc = {
        "transversal": transversal,
        "closed_form": {"name": name},
        "window": [-2.0, 2.0],
        "n": 41,
    }
    if params:
        doc["closed_form"]["params"] = params
    return json.dumps(doc)


def _cases() -> dict[str, str]:
    geo = {"kind": "geodesic"}
    hyp = {"kind": "hypercycle", "phi": PHI}
    cases = {
        "pencil": _closed("pencil", geo),
        "horospherical": _closed("horospherical", geo),
        "totally_geodesic": _closed("totally_geodesic", hyp),
        "constant": _closed("constant", hyp, c=0.3),
        "custom_constant_max": _closed("custom_constant_max", hyp),
        # Leading and trailing pins, a misplaced pin at each end and a sample
        # beyond the bound.
        "pins-and-bound": json.dumps({
            "transversal": hyp,
            "samples": [
                {"t": t, "h": h}
                for t, h in zip(
                    (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
                    (-B, -B, 0.1, -B, 0.9, B, 0.2, B, B),
                )
            ],
        }),
        "single-sample": json.dumps({"transversal": hyp, "samples": [{"t": 0.3, "h": 0.1}]}),
        "horocycle-zero": json.dumps({
            "transversal": {"kind": "horocycle", "height": 1.0},
            "samples": [{"t": t, "h": 0.0} for t in (-1.0, 0.0, 0.5, 2.0)],
        }),
    }
    drawn = (("geodesic", Transversal.geodesic()), ("phi", Transversal.hypercycle(PHI)))
    for label, tr in drawn:
        for seed in range(3):
            route = random_valid_route(tr, seed=seed)
            cases[f"valid-{label}-{seed}"] = dumps_document(route_to_document(route))
        route, _ = perturbed_invalid_route(tr, seed=0)
        cases[f"perturbed-{label}-0"] = dumps_document(route_to_document(route))
    return cases


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outputs(name: str, text: str) -> dict[str, str]:
    """Digest of each command's output on one case."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "route.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for label, argv in COMMANDS.items():
            code, stdout = _run(argv + [path])
            out[f"{name}:{label}"] = _digest(f"{code}\n{stdout}")
        svg_path = os.path.join(tmp, "fig.svg")
        code, _ = _run(["render", path, "--force", "--extend", "4", "--out", svg_path])
        svg = ""
        if os.path.exists(svg_path):
            with open(svg_path, encoding="utf-8") as fh:
                svg = fh.read()
        out[f"{name}:render"] = _digest(f"{code}\n{svg}")
    return out


GOLDEN = {
    "constant:validate": "6e3a5d2bbc47e1c10b6d4ae9196ce718f6b21a909a1d04183c2667bac108ef44",
    "constant:validate-c1": "2730a5cd1c45ca80e01bf450ca9927ec92bf5701c67d4b50fb13b6972a97c0a0",
    "constant:leaves": "480018bc232b5d7ad41375e069fc3e040cc4a99a5821ea2fb1667f75770237c9",
    "constant:leaves-force": "480018bc232b5d7ad41375e069fc3e040cc4a99a5821ea2fb1667f75770237c9",
    "constant:audit": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "constant:audit-force": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "constant:render": "b3fcc4da001cf05f33b80cc4c9d6ac05f2bf1a93a4dbb7348fefbfd6ca6edadd",
    "custom_constant_max:validate": "55971f5a1e3c4167dd9410cb364efcf78410762e0cde0cbfbf521810ffc63a6c",
    "custom_constant_max:validate-c1": "32dcdbdefd58f83fbcf8ce8d7a8d6c17e675cef84977c6c4351b3412412a4536",
    "custom_constant_max:leaves": "5472c9549c72340200d4005e8ff86167b1a393077e6154ad88c8d6909a2d70aa",
    "custom_constant_max:leaves-force": "5472c9549c72340200d4005e8ff86167b1a393077e6154ad88c8d6909a2d70aa",
    "custom_constant_max:audit": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "custom_constant_max:audit-force": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "custom_constant_max:render": "86c2836a0be45f82ff3e33b16ab388fcae07723dad9fbb6fdc4a5bc52b92a2f1",
    "horocycle-zero:validate": "ed6eb3cf35317345ea852c35752de4da79d7a83844962bac16b8b974966da090",
    "horocycle-zero:validate-c1": "ed6eb3cf35317345ea852c35752de4da79d7a83844962bac16b8b974966da090",
    "horocycle-zero:leaves": "25fba5b049f76c90502def2a95d89d849c9a326c01517e63cc1dfe4662451e22",
    "horocycle-zero:leaves-force": "25fba5b049f76c90502def2a95d89d849c9a326c01517e63cc1dfe4662451e22",
    "horocycle-zero:audit": "7e2ca1f1df9c3e4bc62275be9b0a4129046c7a737410a7d43aafef1888df82a2",
    "horocycle-zero:audit-force": "7e2ca1f1df9c3e4bc62275be9b0a4129046c7a737410a7d43aafef1888df82a2",
    "horocycle-zero:render": "3c718d1e6a6ff4c2c63c9ee30fe0f5fa27d3644b1c4207ae6b413d46eec709a5",
    "horospherical:validate": "0e1073dc57908208891f66b3a680ebbb3bb47b87e15de7e3e7b865c37d0c1e65",
    "horospherical:validate-c1": "e03dd6147480ed915be5a8892953b9ad6bccbcbb0631b034b7256741e1984a9b",
    "horospherical:leaves": "3b8ac4ac9bf6ca70054b46868eceaa02d6eb5c0653260107121f33d9a3fa16d5",
    "horospherical:leaves-force": "3b8ac4ac9bf6ca70054b46868eceaa02d6eb5c0653260107121f33d9a3fa16d5",
    "horospherical:audit": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "horospherical:audit-force": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "horospherical:render": "8c6f77d9de67e054c5da0e6165d36e4ee021c4ecf8930c412689e122f005efb2",
    "pencil:validate": "c9b4060d3504d058f1ffc343b420321b21675a2b6ec9f0706286fc6d89b65f0b",
    "pencil:validate-c1": "530c8b365abd972f353469b1a60d6c05017cfda5d92b851bf695d10c92307d1e",
    "pencil:leaves": "b5130e058f10719d042fb79db68632c276bc27d3a2c007127fa6e53042649580",
    "pencil:leaves-force": "b5130e058f10719d042fb79db68632c276bc27d3a2c007127fa6e53042649580",
    "pencil:audit": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "pencil:audit-force": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "pencil:render": "9fb33ab9601f31b878ec73b4c4f26940ce5a40fccbef1bcbc6e01dda0fe6f85f",
    "perturbed-geodesic-0:validate": "70db04078714f7cc4dc5113c5406974cd46e4d628de5816df9c4bdf37b7d3da2",
    "perturbed-geodesic-0:validate-c1": "c000715367deebbec0caf08ca171b8d16c4a5b9104ed3fb4bf21a79db237a62f",
    "perturbed-geodesic-0:leaves": "70db04078714f7cc4dc5113c5406974cd46e4d628de5816df9c4bdf37b7d3da2",
    "perturbed-geodesic-0:leaves-force": "c190b5ace0d1148d8b8e8603156b148cba6af2a8380e31428dbdc8d89540b864",
    "perturbed-geodesic-0:audit": "70db04078714f7cc4dc5113c5406974cd46e4d628de5816df9c4bdf37b7d3da2",
    "perturbed-geodesic-0:audit-force": "6a84edf10e51a1b9d5defe7dd5d10ee7b795602a6cb315e0dfb4f42cbbce9a0c",
    "perturbed-geodesic-0:render": "464f46657eb183ceaef07b5daa092ee43e6791cdb9641d6f7aa0340c8c1102f3",
    "perturbed-phi-0:validate": "5d697fb1595f89e59de8e5dcdb5e18ba939f38d5db3a52235a8c6bc1cbbaf57d",
    "perturbed-phi-0:validate-c1": "2caf61201e51f308cf643cae06058dd1909025c51d079c5519470a6dad9d020a",
    "perturbed-phi-0:leaves": "5d697fb1595f89e59de8e5dcdb5e18ba939f38d5db3a52235a8c6bc1cbbaf57d",
    "perturbed-phi-0:leaves-force": "da61d4ae25472b96cb2538b2b1dbadd337de7d215370cc0a0a4b9239de799d3c",
    "perturbed-phi-0:audit": "5d697fb1595f89e59de8e5dcdb5e18ba939f38d5db3a52235a8c6bc1cbbaf57d",
    "perturbed-phi-0:audit-force": "c928fbf513359213d19199e963ac1305b3d0bfc634cc13269750e590d51ec267",
    "perturbed-phi-0:render": "034d249ada97390b79ee19f37471ba65e7468df3d202b29a49e97bf1c3d9e56c",
    "pins-and-bound:validate": "9ea87d00f4f258f5223aecc2597d00d1c0ea203baa7f3feb09ff44b44b188250",
    "pins-and-bound:validate-c1": "766788931ecd4664233cc0c3fb723c532820a74f2e3ae2ab7c6d2840e9a115a1",
    "pins-and-bound:leaves": "9ea87d00f4f258f5223aecc2597d00d1c0ea203baa7f3feb09ff44b44b188250",
    "pins-and-bound:leaves-force": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "pins-and-bound:audit": "9ea87d00f4f258f5223aecc2597d00d1c0ea203baa7f3feb09ff44b44b188250",
    "pins-and-bound:audit-force": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "pins-and-bound:render": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "single-sample:validate": "c042bc61613f728afe00de0f17b2ab96090a426a978eef38a32cbd1b477098cd",
    "single-sample:validate-c1": "80fa8fb26548dad6b41dbd77a08ba4fb88f0209003097902b9e34ea4718e2792",
    "single-sample:leaves": "b1c3ebe031a26404e9a38c75be9e387a670b6823ef2a8453da5b13399023ccbe",
    "single-sample:leaves-force": "b1c3ebe031a26404e9a38c75be9e387a670b6823ef2a8453da5b13399023ccbe",
    "single-sample:audit": "11441e7ecb9f0e5e18c4622d90b33fe8b022c18fc70ff1a76bd1a8233f0bc14c",
    "single-sample:audit-force": "11441e7ecb9f0e5e18c4622d90b33fe8b022c18fc70ff1a76bd1a8233f0bc14c",
    "single-sample:render": "f961c26be7a1b5b82bf448c669b356e93c051ad0701ebf434939e42f1952ecd1",
    "totally_geodesic:validate": "6e3a5d2bbc47e1c10b6d4ae9196ce718f6b21a909a1d04183c2667bac108ef44",
    "totally_geodesic:validate-c1": "f20dadf064e501126329341c26bf70611d5c10bbfc89e49af093a9eaf56d8fb3",
    "totally_geodesic:leaves": "7c5006cb049e8c7f7efba1b192031b435e7d117c5658c6edd47bef8c7aaf6d6c",
    "totally_geodesic:leaves-force": "7c5006cb049e8c7f7efba1b192031b435e7d117c5658c6edd47bef8c7aaf6d6c",
    "totally_geodesic:audit": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "totally_geodesic:audit-force": "716410c715bde48a0fbeba43ecc56340cee3fde6316aad57dc9a7914c390149b",
    "totally_geodesic:render": "4e8a6a9aad62f349b166eb83de418545ad3893d414f509e795de234d6766058d",
    "valid-geodesic-0:validate": "24ce412aca6bfccdd008cc1be1df8500c5abd1c652d4eafe216f8a848ea6f769",
    "valid-geodesic-0:validate-c1": "e31a77d9c54b1fda7798fd8661a7273c082476d0875d63e0510e60ee5a9883c3",
    "valid-geodesic-0:leaves": "7aeac7ccc565f85913631a493acbbc5646c053569cab0ad3d6770d4a85327557",
    "valid-geodesic-0:leaves-force": "7aeac7ccc565f85913631a493acbbc5646c053569cab0ad3d6770d4a85327557",
    "valid-geodesic-0:audit": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-geodesic-0:audit-force": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-geodesic-0:render": "84873242d9df4b4b2e85d838c1e22920cd84999084a53587107e9ab302f523cb",
    "valid-geodesic-1:validate": "02fe3e5686c940f784e70cd43a68ab7a9954c54431653684dcea85680dfa2e48",
    "valid-geodesic-1:validate-c1": "a5a06d8029eac0290883ff2c8cdc17028e885fb2b66308696b9c8ac45220e1cd",
    "valid-geodesic-1:leaves": "934d1a36043fdaf9d45c34715a19315d07cc8518e4276858790d34091993a80c",
    "valid-geodesic-1:leaves-force": "934d1a36043fdaf9d45c34715a19315d07cc8518e4276858790d34091993a80c",
    "valid-geodesic-1:audit": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-geodesic-1:audit-force": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-geodesic-1:render": "bd8212fc31020d51cbad1e535ae3bb33b4202d984fcbc47ce5e5c474d801df78",
    "valid-geodesic-2:validate": "ad1291863ff0e429a90f68daf90886823262b64e6f798ba26871cd2b72e4e981",
    "valid-geodesic-2:validate-c1": "be75c69d9f02d86036fac366cea95f1df11af706a542a07d683bfd92a9add52e",
    "valid-geodesic-2:leaves": "f29e1fca9debd7e515db6c7960ee18ee9f6420a971fb2aeba68a14edd9be5d3d",
    "valid-geodesic-2:leaves-force": "f29e1fca9debd7e515db6c7960ee18ee9f6420a971fb2aeba68a14edd9be5d3d",
    "valid-geodesic-2:audit": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-geodesic-2:audit-force": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-geodesic-2:render": "76df253df50a11ce2f4fc0bf71aae7d6a05d7cf11bf8e15b6ddfb64147594572",
    "valid-phi-0:validate": "1dd86f49be5df78b08e20f5659febef46343c22dec64ac28faf3d8b49b110a1d",
    "valid-phi-0:validate-c1": "3866ac22077c4d4acbec61416ef60868b945e7cacadcbbab4203dc4dfecfdc5f",
    "valid-phi-0:leaves": "789035fa1f7e7b22b1563ea45dfe1efc0b7567b5221767b08b61ed20a7e06e34",
    "valid-phi-0:leaves-force": "789035fa1f7e7b22b1563ea45dfe1efc0b7567b5221767b08b61ed20a7e06e34",
    "valid-phi-0:audit": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-phi-0:audit-force": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-phi-0:render": "009d76c1ac740efe051095ae8d601f9bf844037f04e92bc5833c4db4695659cc",
    "valid-phi-1:validate": "5aa62d75df11fb1e464cbdc64af05a932736a3dd526c0a5bab9b1207f05cea33",
    "valid-phi-1:validate-c1": "1eeb2ce767cf82bd220049fb5eb52ec48d4c7ce3f37888ca47c97489dc8e2d72",
    "valid-phi-1:leaves": "6c4694b7f8acf9b8b2cc69a291bd1ba6fad7350bf0dc7aad647d44f7f9fde380",
    "valid-phi-1:leaves-force": "6c4694b7f8acf9b8b2cc69a291bd1ba6fad7350bf0dc7aad647d44f7f9fde380",
    "valid-phi-1:audit": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-phi-1:audit-force": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-phi-1:render": "0178f8860cee04f64cff52d1b823db13a1bf1f2c2649fd4e25fe46c3d7bbe544",
    "valid-phi-2:validate": "1f9019ca43cfec8c6a7bde7c0cf449775514e396cf19cfa90043864edb22655a",
    "valid-phi-2:validate-c1": "ec81528922255939bdecaade83cc57c0d15d944d3803afb28834a1afebaad86f",
    "valid-phi-2:leaves": "fc9fe2904a578de3b49c6b6a43d5bcc91f60e97eaeadae0273ff297a48fdf88f",
    "valid-phi-2:leaves-force": "fc9fe2904a578de3b49c6b6a43d5bcc91f60e97eaeadae0273ff297a48fdf88f",
    "valid-phi-2:audit": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-phi-2:audit-force": "f727b22177220bd059f1af8ea42c5f27dbd74bbf36f3171bbc7645cf48fafdf9",
    "valid-phi-2:render": "a2541beb93a6347e43c1d727e0c809c19e441ba05f937db64e8fcdd24f728435",
}


#: Commands that read no route document, digested like the cases above.
STANDALONE = {
    "examples": ["examples"],
    "lemma-check": ["lemma-check", "--n", "2000", "--seed", "0"],
    # Three blocks of the sweep (at most 2**14 pairs each).
    "lemma-check-blocks": ["lemma-check", "--n", "40000", "--seed", "1"],
}

GOLDEN_STANDALONE = {
    "examples": "97aea8e072088d2624613f707d599baa65a9803ab2e434bfde17995d1c2a1fad",
    "lemma-check": "4b4d14f102fcf3c387992258986ecb1b779967fc9120b96fc00b837798de5cfb",
    "lemma-check-blocks": "949bcf7c24325aa56f29d172f232006c7c32b5a4ede4a3862e7c829ed1df4916",
}


def _standalone(name: str) -> str:
    code, stdout = _run(STANDALONE[name])
    return _digest(f"{code}\n{stdout}")


def _steep_route(n: int, m: int, seed: int) -> Route:
    """A phi = 0.9 route drawn in profile coordinates like
    ``random_valid_route``, with slopes L + 0.5 over the m steps from the
    middle sample, so every pair inside that run violates the bound."""
    rng = np.random.default_rng(seed)
    t = np.linspace(-4.0, 4.0, n)
    slopes = rng.uniform(-0.8 * B, B - 1e-3, n - 1)
    slopes[n // 2:n // 2 + m] = B + 0.5
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    h = np.array([profile_inverse(PHI, y) for y in g])
    return Route(Transversal.hypercycle(PHI), t, h)


def _with_dh(route: Route) -> Route:
    return Route(route.transversal, route.t, route.h, dh=np.gradient(route.h, route.t))


def _drawn_document(transversal: Transversal, n: int = 4000) -> str:
    route = random_valid_route(transversal, window=(-4.0, 4.0), n=n, seed=0)
    return dumps_document(route_to_document(route))


#: A horocycle slice whose leaves alternate between lines (h = 0) and
#: circles, drawn with ``--force``: only h = 0 is valid on a horocycle.
HOROCYCLE_MIXED = json.dumps({
    "transversal": {"kind": "horocycle", "height": 1.5},
    "samples": [
        {"t": float(t), "h": 0.0 if i % 3 == 0 else -float(h)}
        for i, (t, h) in enumerate(zip(np.linspace(-4.0, 4.0, 4000), np.linspace(0.01, 1.0, 4000)))
    ],
})

PENCIL_N4000 = json.dumps({
    "transversal": {"kind": "geodesic"},
    "closed_form": {"name": "pencil"},
    "window": [-3.0, 3.0],
    "n": 4000,
})

#: Outputs far larger than the cases above: reports of thousands of
#: violations, a document of thousands of samples, and leaf tables and
#: figures of thousands of leaves, as (command, text).
LARGE = {
    "steep-phi-n1000": (["validate"], dumps_document(route_to_document(_steep_route(1000, 100, 0)))),
    "pencil-(-12,12)-n1000": (["validate"], json.dumps({
        "transversal": {"kind": "geodesic"},
        "closed_form": {"name": "pencil"},
        "window": [-12.0, 12.0],
        "n": 1000,
    })),
    "valid-phi-n4000-dh": ([], dumps_document(route_to_document(_with_dh(
        random_valid_route(Transversal.hypercycle(PHI), window=(-4.0, 4.0), n=4000, seed=0)
    )))),
}
for _name, _text in (
    ("valid-geodesic-n4000", _drawn_document(Transversal.geodesic())),
    ("valid-phi=1.1-n4000", _drawn_document(Transversal.hypercycle(1.1))),
    ("pencil-(-3,3)-n4000", PENCIL_N4000),
):
    LARGE[f"{_name}:leaves"] = (["leaves"], _text)
    LARGE[f"{_name}:render"] = (["render", "--extend", "8"], _text)
LARGE["horocycle-mixed-n4000:leaves"] = (["leaves", "--force"], HOROCYCLE_MIXED)
LARGE["horocycle-mixed-n4000:render"] = (["render", "--force", "--extend", "8"], HOROCYCLE_MIXED)

GOLDEN_LARGE = {
    "pencil-(-12,12)-n1000": "d213a35b948d075e54865ed13e0a2fa9c23bb933f113dd72df7ec970512d33f2",
    "steep-phi-n1000": "0671bcfc3f23acaea14790b7bfef493b5c8469274cb6d0c3e83dde6d1a77e922",
    "valid-phi-n4000-dh": "7c233552e018afd3b3753f4143d5171522931a7a503c6570e4fb7e804c752942",
    "horocycle-mixed-n4000:leaves": "b6cb1a3de5b6ad3ccb70c78b79a31acde47e323b8b6657a2531b247d1b13c533",
    "horocycle-mixed-n4000:render": "863bd92f903e10d7a326767d87f049b3f25a9c1407187c140c233d10fa9740d0",
    "pencil-(-3,3)-n4000:leaves": "bb333236aa99e581bdc9c23bcc89b61e45b00fcc5f42445c37cbbee9e2750373",
    "pencil-(-3,3)-n4000:render": "a2420a64c618cb17cf52e026385c6d65e57f75bdd72bbd7d88c6889e64e52c81",
    "valid-geodesic-n4000:leaves": "b1ce9991318d6042c48d994dd278239cdb49e037ee49367bf569a586a528d4db",
    "valid-geodesic-n4000:render": "d2fc1f0e52bf3aec134589945fb5a3e0d24499baa70f30739aa311038d85c45e",
    "valid-phi=1.1-n4000:leaves": "95a431e917f266918c82b1ed7f5dd01b56dee48a09a2874061741c1e30b02363",
    "valid-phi=1.1-n4000:render": "9754964227a0c9d60dbe299f0a698457a2bf32b5804c42fcdd7b9444dfa0d598",
}


def _large(name: str) -> str:
    """Digest of the command's exit code and stdout on the document (for
    ``render``, the SVG bytes instead of stdout), or of the document text
    itself when there is no command."""
    argv, text = LARGE[name]
    if not argv:
        return _digest(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "route.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if argv[0] != "render":
            code, stdout = _run(argv + [path])
            return _digest(f"{code}\n{stdout}")
        svg_path = os.path.join(tmp, "fig.svg")
        code, _ = _run(argv + [path, "--out", svg_path])
        svg = ""
        if os.path.exists(svg_path):
            with open(svg_path, encoding="utf-8") as fh:
                svg = fh.read()
    return _digest(f"{code}\n{svg}")


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name):
    got = _outputs(name, CASES[name])
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}:")}
    assert got == want


@pytest.mark.parametrize("name", sorted(STANDALONE))
def test_standalone_outputs_match_golden(name):
    assert _standalone(name) == GOLDEN_STANDALONE[name]


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_outputs_match_golden(name):
    assert _large(name) == GOLDEN_LARGE[name]


if __name__ == "__main__":
    for name, text in sorted(CASES.items()):
        for key, value in _outputs(name, text).items():
            print(f'    "{key}": "{value}",')
    for name in sorted(STANDALONE):
        print(f'    "{name}": "{_standalone(name)}",')
    for name in sorted(LARGE):
        print(f'    "{name}": "{_large(name)}",')
