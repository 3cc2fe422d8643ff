"""Pinned bundle bytes: the sha256 of every file, manifest.json included.

Small bundles of the commands that need only numpy; each one must also
replay byte for byte.  A change that moves any byte must update these
digests and raise ammlab.__version__ with them; manifest.json records the
version, so its digest moves with it anyway.
"""

import hashlib

import pytest

from ammlab.cli import main

PINNED = {
    "simulate --sigma 0.001 --n-steps 200 --n-runs 500 --seed 7": {
        "hist_fees.json": "9fc57f134ac2e5b7fe98f50d1a4200bfd653a0a9356af603e9d74f697aa65552",
        "hist_final_price.json": "1b66d03d3942f19396a1140477869fd7c511bfe5b1970bbb8b332b551bba5135",
        "hist_il.json": "993d755cb6ea4261d28ad94af02abba92d5409455b977e1f9120c731d9afac11",
        "hist_il_minus_fees.json": "f4bb6fa60b251cc628343afde2e2a74c40adfdce3222ab3747949b15238c1d68",
        "hist_lvr.json": "a195c8b56bebae171b40ef544139de02687317971866f6b77d806ff5692de92f",
        "hist_lvr_minus_fees.json": "f750cb0a4b1739594024f9dce0d45babff3105c1d8d52a4ff6a05e0a2ff27323",
        "hist_volume.json": "7e20d1d80149454e0430a9bc0d035027cf90da6f26d3cd017d1f98f9f95fb511",
        "manifest.json": "b76026be46ea8d6829ae0312ea0d953ecda2ef8429f5508460d7a7a7ac3884fc",
        "schema.json": "bb359d0134d1c4defc22291c7ab6137a6d462cc0b8eb91b42c44335a0c475896",
        "summary.json": "ed16bbc39b36bc217fff5e188f923ebbb4c778fc88301949c86dc41801aa5ea6",
        "table.csv": "8c0b7268a01c1eb9356cfc11d34df6debe19c4644a3c9d756f1f683c118465b6",
    },
    "simulate --sigma 0.001 --n-steps 200 --n-runs 500 --seed 7 --fee 0.0002 --target marginal --band-rule linearized": {
        "hist_fees.json": "8a754085961f9128531c58eeb444adeb5adc80beb223668fdfffb08e4bc82db6",
        "hist_final_price.json": "8497bcdd0a0292fee429d3fea6b022660e81c9539717bb1df5bab5cea55119ef",
        "hist_il.json": "da5965db748b757a3be88d213c8eb29ab75d452cc803bb3c803c3b9bb2ecc3f5",
        "hist_il_minus_fees.json": "8744511fa6082f69ff48cdd04417f6ad66d67b2913a83d86f82825421e3fdf74",
        "hist_lvr.json": "ec33af69d11b4b2ec652806caa448baa73828adbccc56e8c217636f34bd5e4a7",
        "hist_lvr_minus_fees.json": "37ba7bd8f0c90f76f3308ad7a5d0c75dc5981f1b6f47d40760e2389622863f1b",
        "hist_volume.json": "50e2f2e10146f34f1454ee395ff07abde934c2f571aa08175e4330d1a455f186",
        "manifest.json": "2f0789a0972527ea653ec58bfc5d59a19f83e6feda8470038eb4f72fd565c690",
        "schema.json": "bb359d0134d1c4defc22291c7ab6137a6d462cc0b8eb91b42c44335a0c475896",
        "summary.json": "25da7c0614aea264d7115111e4bdcbb714f6d677572f000069250b0b913a20ff",
        "table.csv": "07197538b0a803964868d384d8c6eee600b633d554915efcc312626abf42eee9",
    },
    "simulate --process both --observables prices --n-steps 100 --n-runs 500 --seed 3": {
        "bm_hist_final_price.json": "8ead5d36d68b3569693bc9452306d21d2b1d45da510f5491c404f83d338897a8",
        "bm_price_density.csv": "b80be2cdec583f77b7a125b84553600933d6f1c540e8f904fc44e5d36455679f",
        "bm_summary.json": "ff1722c02fa8c4ef8d9435ec9c4b316f4561990bf1727933fadb848f84779503",
        "compare.json": "b5553d4e8e7f593c2cf4ffa8dfa740fb7ae9b081bbfe38308a603a807956b5d0",
        "gbm_hist_final_price.json": "fdc7dd6019fbe1ab5ecf13e5fffbcb82b540021dc7929a2267b089267f11a35c",
        "gbm_price_density.csv": "bf45d012fdc3bc1e797e9a49e30440ff07a1d38d95acf2c8624c7e5d61e3a618",
        "gbm_summary.json": "1fb5ddba8536a4fe9a7ab7bab17bb4015fcbc5a3ba2b73995e2a63d9b3ba9926",
        "manifest.json": "d5f4c28f4aafedd8801996088c4a759f05f3c7f5ae5ccd1cd8a412a9d76dadca",
        "schema.json": "08e28df21dbd1f4035ed091d992d737a71e21fd522b577b2a0400086f447629e",
    },
    "sweep fee --fees 0.0001,0.0004,0.004 --sigma 0.004 --n-runs 300 --n-steps 100 --seed 5": {
        "baseline.json": "53b9015dc0cfd44c87d4496031a2a001e3cb226fd0558de0c554ac47de6f0a83",
        "fits.json": "0cc7f544b8beea123c8666467dc1194cd70f795e5026cd69f01b4004fc30f80d",
        "manifest.json": "735de013c268ac7f103c60c9f2cc08e4ef1ccff7b2b14393c0d934c7294391a6",
        "rows.csv": "a8857a4b12f9b48434b3bceab890b23a418bc6e4b34eeb178363cd30f7b2561f",
        "schema.json": "07086cf4317d6b697a2ffef4bfa044aa1b20882602fb3cef83dabc349d463375",
    },
    "sweep sigma --sigmas 0.0005,0.001,0.002 --n-runs 300 --n-steps 100 --seed 5": {
        "fits.json": "49b08eb04c19ff86017e7c5327e9cf384f16ed4d683f426c84db7b3b8ea792e2",
        "manifest.json": "4a151c55f414522c53688657fb78c6ee23bec447d6aefb0681b3b73d909af072",
        "rows.csv": "e56987a7c8e375a9c1f3430c16074eee823f9bb1686e31ba5150be38b66ad7e1",
        "schema.json": "46724af6b5fba5bb0cd5cc042fb1681fcdf8be2ec6370f6ad368485a5cd2c519",
    },
    "sweep steps --steps-list 50,100,200 --total-variance 0.001 --n-runs 300 --seed 5": {
        "fits.json": "5695ae1f32ca665ed26713692585f02096774c03e097f47f7fb18eb08bc8472a",
        "manifest.json": "cb07bd33715de1731c23061a9bd143d617938dbddd9f151f3b23f9765e2f1336",
        "rows.csv": "1839a25a8240db07222a787773d53855072cf7f1b114c5569c8cb6c412d622dc",
        "schema.json": "bdf8ea2a6a99d304b21c3d931915356773f14317cd1c789b92db283cfaa69755",
    },
    "analytic lvr-mean --sigma 0.02 --t 1000": {
        "analytic.json": "1b03cd0da20769e0daf9c5e07152ce8335a5b805e2c0e55852f20e91db570c7a",
        "manifest.json": "720e12a527f68c947ac6d688e848a16f591110040955748f147c1e44199118e0",
        "schema.json": "1c2dd0ba28e24b4af4a1193df1c349bc729abed0ab682dda6ed0eec172cd4c47",
    },
    "analytic first-passage --k-list 2,6 --n-walks 2000 --seed 11": {
        "fits.json": "4a81c50f3742a6d3f5370a72f302084994d213a6c81dd9e6dae2c922d60ba048",
        "manifest.json": "7183164f9ca2a4bbbeef84d59c37db06cd72ce2ee06b3334bf013eb27da47852",
        "rows.csv": "3f0a70a2710c6be69d678aff51ee5725d036638ee06880c65807b83d29972ef4",
        "schema.json": "3e3aed37388df52fb302825e671f01b9f1fc5dc601afc214a29fa2dd2ef915a5",
    },
}


@pytest.mark.parametrize("command", PINNED)
def test_bundle_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "bundle"
    assert main(command.split() + ["--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == PINNED[command]
    assert main(["replay", str(out)]) == 0
