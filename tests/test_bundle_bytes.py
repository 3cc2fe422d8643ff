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
        "hist_il.json": "a9f544196a9332d5baaf0b14f2b6a0403d3bb38868b5090bbf5223ad22013bd5",
        "hist_il_minus_fees.json": "55f3039bb58d02241788937fe4ac460fb880aa20b0353332923314029752d23d",
        "hist_lvr.json": "ddef57a739d65a23f7655e5f85bf9948874bee65b6dcb4ee1392d6c09bcb2b9b",
        "hist_lvr_minus_fees.json": "2cd09e0ff31dac4d94c8b9813c519c3ad98282f42c065b77d6189a4a401cf945",
        "hist_volume.json": "3d4e402f494e701115309a74d129be5ea9cf6adb54c92b95c2e28efeced487c4",
        "manifest.json": "28eff608257cb148b64349cdb3f1c530fa0ea934a719c147d0722da7c32d14ed",
        "schema.json": "bb359d0134d1c4defc22291c7ab6137a6d462cc0b8eb91b42c44335a0c475896",
        "summary.json": "e4747d94e9ad31728ae200897716d90e4cee71ca0757afafbe431d72f31905c3",
        "table.csv": "d9ecdfa9597a51a649f5822e58a95e43a10dfa87cd6b396f143d9b089a2fa176",
    },
    "simulate --sigma 0.001 --n-steps 200 --n-runs 500 --seed 7 --fee 0.0002 --target marginal --band-rule linearized": {
        "hist_fees.json": "bcbbae09b995d53e0cd321f9d328034ef8b673f1e78ccc0adb9176a515c725b5",
        "hist_final_price.json": "94ba21b998d7e08276f23a9f4a139ac08dfb26f5918624a5d9780ec84d0dde85",
        "hist_il.json": "f781f1b9785cdf4664a83acb13490b5e60c8ad8c00cf921646ec9a15761ac427",
        "hist_il_minus_fees.json": "677f6e0f21dcff5d5aeaf8dca63d7cfb933026252bd4e42a67a85c9535f65f0b",
        "hist_lvr.json": "38a9dbf627dfd72dea56e4827f9565a1d3a159d97bd9aad7860cde2ae86705c0",
        "hist_lvr_minus_fees.json": "068dc473bfa163121ef3a270a771a74feee7675d6010836b0481f8b5474cd8f6",
        "hist_volume.json": "cc2532c36f25839648f736a1f187282f64015f70d00fbd7b6de423ff8b031ff0",
        "manifest.json": "c5b28e32074dc562ee1cc3caa0911eb31bef52536fd24a683cb98b2cc8321877",
        "schema.json": "bb359d0134d1c4defc22291c7ab6137a6d462cc0b8eb91b42c44335a0c475896",
        "summary.json": "e79b2bd6e8727e9d6cc09cc99e7d5623b16db4b1102b7658131bb61ed20a849b",
        "table.csv": "e6290db7bd1b079e9936779ac2c819e5c672ba25177bdc8d494ccac0f9bab5e7",
    },
    "simulate --process both --observables prices --n-steps 100 --n-runs 500 --seed 3": {
        "bm_hist_final_price.json": "fc885424d9464164e9d32ff8e72f8a21d09d0e260c29814ed9fd9aa17f5c49f1",
        "bm_price_density.csv": "998eb2eeaea1c87dafd187543cedc0b954a2ad164d0035727473c0929e47d7fb",
        "bm_summary.json": "dd55fbb4c0e2b07fdec5415637f2a9c5b0459249859a6c408a57ccdac2224ca7",
        "compare.json": "dd8c47c2012b7d1a5f38374cccad45ffe5815a88c25b6fda255bafb8be162f88",
        "gbm_hist_final_price.json": "fdc7dd6019fbe1ab5ecf13e5fffbcb82b540021dc7929a2267b089267f11a35c",
        "gbm_price_density.csv": "bf45d012fdc3bc1e797e9a49e30440ff07a1d38d95acf2c8624c7e5d61e3a618",
        "gbm_summary.json": "1fb5ddba8536a4fe9a7ab7bab17bb4015fcbc5a3ba2b73995e2a63d9b3ba9926",
        "manifest.json": "a931442f6d87e33f37617adeefd2269eddc61cf46f3a6f9045c3c45adeffa898",
        "schema.json": "08e28df21dbd1f4035ed091d992d737a71e21fd522b577b2a0400086f447629e",
    },
    "sweep fee --fees 0.0001,0.0004,0.004 --sigma 0.004 --n-runs 300 --n-steps 100 --seed 5": {
        "baseline.json": "d1177d5321713b5aba0f77c14f0aa918ad73b83d9c389600fad9e68f305e2da9",
        "fits.json": "0cc7f544b8beea123c8666467dc1194cd70f795e5026cd69f01b4004fc30f80d",
        "manifest.json": "6a079a8b8e8c2b6c028a3265bb8469021dba20ded00dfe17ccc5ea6f2dc3dc8c",
        "rows.csv": "ee44d9331470a918af2e0e968fd6bd14ec93a965bc9626df3cd02b943138ca27",
        "schema.json": "07086cf4317d6b697a2ffef4bfa044aa1b20882602fb3cef83dabc349d463375",
    },
    "sweep sigma --sigmas 0.0005,0.001,0.002 --n-runs 300 --n-steps 100 --seed 5": {
        "fits.json": "14710a9a77fd895708a68a93d0b1b550fd9a3bd00902846920a0b1b8b5ba5164",
        "manifest.json": "5193de5ce4c1d91cf01c3c6e9c637f9474d405ea41bb90cd2f0c15343570a91b",
        "rows.csv": "499ebd948267dcc4b19b464eb5e9b5ffe1ae963d27b26e7d10184fc61610ef56",
        "schema.json": "46724af6b5fba5bb0cd5cc042fb1681fcdf8be2ec6370f6ad368485a5cd2c519",
    },
    "sweep steps --steps-list 50,100,200 --total-variance 0.001 --n-runs 300 --seed 5": {
        "fits.json": "48a92ef5e9388b92e369ceccff0eaaa561d993011895fc936e75a311c957c66b",
        "manifest.json": "d9f5c691ea143670bbef4f88c72c411960ece3a5d056ed5fe05495109e0968d4",
        "rows.csv": "57a360f592d3975355431820a200606aa3911d85f5f06a033382aa843bd275a0",
        "schema.json": "bdf8ea2a6a99d304b21c3d931915356773f14317cd1c789b92db283cfaa69755",
    },
    "analytic lvr-mean --sigma 0.02 --t 1000": {
        "analytic.json": "1b03cd0da20769e0daf9c5e07152ce8335a5b805e2c0e55852f20e91db570c7a",
        "manifest.json": "cbe58c63308b84d9adb2f4a57ab42a4704f959962839ca1769a4263217d6e3e1",
        "schema.json": "1c2dd0ba28e24b4af4a1193df1c349bc729abed0ab682dda6ed0eec172cd4c47",
    },
    "analytic first-passage --k-list 2,6 --n-walks 2000 --seed 11": {
        "fits.json": "4a81c50f3742a6d3f5370a72f302084994d213a6c81dd9e6dae2c922d60ba048",
        "manifest.json": "83a3b935b25148f83179e06b50442db042baceb713393f81818d5a6b58f677af",
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
