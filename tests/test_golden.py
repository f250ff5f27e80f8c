"""Golden report digests: the sha256 of `gkmlef analyze` stdout, pinned.

Any change to report bytes, in JSON or text form, shows up here. A change
that is meant to keep reports identical must pass this file unchanged.
"""
import hashlib

import pytest

from gkmlef.cli import main

# (analyze arguments after --example, format) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("su3", "json"): (0, "93fae8a418e24acf5a2b62645f5a339410eb4a65e872202e5122e8de132a6f0f"),
    ("su3", "text"): (0, "be8d813d5ae2a6cf1324ca5e03175987b54062d8179c8ce6bfbb9d408d2e658a"),
    ("so5", "json"): (0, "a2f46cd30f94d6e7722a560be2da429d30cd362843bc770232447400319ac64f"),
    ("so5", "text"): (0, "a7bf8e3906a042ea2f78302befd9817c47d45a829aecf733257be73c1b50004b"),
    ("so5 --scale 2", "json"):
        (0, "5623b2128ed4dc10f5815a66dc20174531d59e16a58e83e85c56710c5dded83f"),
    ("so5 --scale 2", "text"):
        (0, "1c7d8132e61d90aefb0bdc800b18efd71f7297c7a929ec2b0b2229fb86784db2"),
    ("cp1", "json"): (0, "00ad991cb4d96c6db2dd0104c7ade56cfb0f32f85cfef595048997207feec3f6"),
    ("cp1", "text"): (0, "83671029405d5afd49b07333c39657d6d3b6c3f25ad497f13c16877ed223030f"),
    ("cp2", "json"): (0, "1d961dc527d18e3786d1cfe7cfa00220695c7d8c90d1f305a10d3577081d3f42"),
    ("cp2", "text"): (0, "09684edb4c3e1ddc4f37acbfacd8aba49da365c67ca5e4481de1a5056ffced0e"),
    ("cp3", "json"): (0, "f4362c716d1ca13c13b14222af115757cd76e8644a96ad4970d0bfd935802768"),
    ("cp3", "text"): (0, "c1b688634533664a77212b1de3304cead10b0701ffc828f03f9e4cde1d159746"),
    ("cp4", "json"): (0, "4b77f99441c852e053146e984d89832d899f06428a3c22f64821fd95fa934682"),
    ("cp4", "text"): (0, "32bede00412eebc44cd1c16177d9a446bd59e6bef61774a84b5a0a2deb2eebe0"),
    ("cp5", "json"): (0, "ead664b7e0433ae7c27c0cc143109279d677f255827fe897c9543e0672bdc4c7"),
    ("cp6", "json"): (0, "33cb0b8739433869f0a84e15ebb384522546f1333aee8ac83a214bd8f0c79a2a"),
    ("cp7", "json"): (0, "9aa52ba7ef389bca9a77b7cfe423725105e97398b5e40b6e9b7acf7e3807a2f4"),
    ("cp8", "json"): (0, "5cbaad78cd9f2b4dc01fea5a5762b0f03996065a9ff265c4d6f9aaa482fcc7b7"),
    ("cp9", "json"): (0, "935c9173807fac2d9a95160ed764a3cdae2928a71ad5e81bc391ac617064d951"),
    ("sphere_product1", "json"):
        (0, "8ec77a0ad946d76164080d0288135ff22dd5909bbcd5de2f5fb4c2b24ca48d61"),
    ("sphere_product1", "text"):
        (0, "26c56c054c90c122d51fedf7f2710de44b745b22f5e48b3a9a46fb22eb25d858"),
    ("sphere_product2", "json"):
        (0, "e6cac08985340cdb3728c93af914b773db91c1440d8791b599c8457446162502"),
    ("sphere_product2", "text"):
        (0, "987166b0f459c458f1035584fbc0e1bafd25f2726ffa3ef8bff88a20e3147250"),
    ("sphere_product3", "json"):
        (0, "353bf3249acec1887c7ca3072dcb2d6d9141a10b40458543ce744582138b7cfa"),
    ("sphere_product3", "text"):
        (0, "6f0c9a8cefbd821fa8fd5190a91002e7f23d091bcf259099f94755e1c8c18473"),
    ("sphere_product4", "json"):
        (0, "f007fa51cfe233795afb6beeb2875184f4accf99c9bc9499ae6fcc390902f255"),
    ("sphere_product5", "json"):
        (0, "836be08af8c96ea994a50f7587bacd42fdf9c67b4e00df500f6f7e09cb5e5016"),
    ("sphere_product6", "json"):
        (0, "d8f5c0d2d8bdec64b20f4b02399346d94c3946c241781aa17ff905ccd42d925f"),
    ("sphere_product7", "json"):
        (0, "57f1cbd243c8c429dac874b9ce32b35a8173cadb149ad257f01aaa081bbcc2bd"),
    ("sphere_product8", "json"):
        (0, "77e30e09d785e9892882fba0592ba5f03a395b9905d8d61e654a0eb58168de46"),
    ("hirzebruch1", "json"):
        (2, "27bcca82f534337e721de2ca2c275dd8668123e0207503b7844113345ed8495c"),
    ("hirzebruch1", "text"):
        (2, "39fcc6810c99ec4da9d4b61c8c28359c0d85ab3b656bac4b9a06b13e5d18b912"),
    ("hirzebruch2", "json"):
        (2, "98d0448b01ebd0d70930415ed176ef60565fbec5806101761c6adfb6cd40a4d1"),
    ("hirzebruch2", "text"):
        (2, "05c1932064a6a9240f706d314b6eb35a047a1086c29fc347005749f253ca6808"),
    ("su3 --xi 2,-1", "json"):
        (2, "cf0e99554cf895862781714cdfb4f35d7600ab530fd39883303848c69f73e34d"),
    ("su3 --xi 2,-1", "text"):
        (2, "f49ec53cd939e202ac7d0f95c4b52929ae1d57196149049a6f70ed4802ee49cf"),
    ("so5 --shift-min", "json"):
        (0, "b27c21550023b78dbeff903c58f74b5ffeee7d8df00ffd9ad69240309b6fd317"),
    ("so5 --shift-min", "text"):
        (0, "80bc72d18068845c482d92d3f8a05534c42168607f7a6bce653b2986b3e4a7a6"),
    # moment values with denominators (D > 1), and a circle that reorders the basis
    ("so5 --scale 3/7", "json"):
        (0, "8f8941b6f9e38093e5c930c8ee1b4974547e3c3fbb2aec554320f880e235de81"),
    ("so5 --scale 3/7", "text"):
        (0, "aa9e70db3f6d57d5b2ad2d5dfff7ce6b4082098e61b5e74829ed68d05add6532"),
    ("cp3 --xi=-3,-2,-1", "json"):
        (0, "72bab2b979decc5ba6230c8e873281f3e1a3500de7cb50ed11563cd3f917a64b"),
}


@pytest.mark.parametrize("args,fmt", sorted(GOLDEN))
def test_report_digest(capsys, args, fmt):
    code = main(["analyze", "--example", *args.split(), "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[(args, fmt)]
