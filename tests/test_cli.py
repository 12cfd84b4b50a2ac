"""CLI behavior: golden outputs, exit codes, batch determinism, selftest."""

import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hecke5.cli as cli
import hecke5.reduction as reduction_module
import hecke5.subgroups as subgroups_module
from hecke5.cli import UsageError, main, parse_command
from hecke5.errors import BoundExceededError, ParseError
from hecke5.reduction import eval_word, parse_word
from hecke5.ring import RingElt, format_element, lambda_pow, parse_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    objects = [json.loads(line) for line in out.splitlines()]
    return code, objects, err


# --- element grammar goldens ---------------------------------------------------------


def test_parse_element_goldens():
    assert parse_element("2*L-1") == RingElt(-1, 2)
    assert parse_element("225*L+139") == RingElt(139, 225)
    assert parse_element("5") == RingElt(5, 0)
    assert parse_element(" 2 * L - 1 ") == RingElt(-1, 2)


def test_parse_element_reads_decimal_digits_only():
    assert parse_element("٣*L+１２") == RingElt(12, 3)
    for text, position in (("²", 0), ("2²", 1), ("L*²", 2), ("½", 0), ("Ⅻ", 0)):
        with pytest.raises(ParseError) as info:
            parse_element(text)
        assert info.value.position == position
    with pytest.raises(ParseError, match=r"^unexpected character '²' \(at position 0\)$"):
        parse_element("²")


def test_parse_element_refuses_literals_past_the_digit_limit():
    assert parse_element("9" * 4300) == RingElt(10**4300 - 1, 0)
    for text, position in (("1" + "0" * 5000, 0), ("2*L+" + "1" * 4301, 4)):
        with pytest.raises(ParseError) as info:
            parse_element(text)
        assert info.value.position == position
    with pytest.raises(ParseError) as info:
        parse_element("L*" + "7" * 4301)
    assert info.value.position == 2


def test_format_element_refuses_coefficients_past_the_digit_limit():
    assert format_element(RingElt(-1, 10**4299)) == "1" + "0" * 4299 + "*L-1"
    for x in (RingElt(10**4300, 0), RingElt(1, -(10**4300)), RingElt(10**4300, 1)):
        with pytest.raises(BoundExceededError):
            format_element(x)


def test_index_past_the_digit_limit_is_a_coded_error(capsys):
    modulus = "1" + "0" * 2200
    code, (obj,), _ = run_json(capsys, "index", modulus)
    assert (code, obj["schema"], obj["code"]) == (1, "hecke5.error/1", "BoundExceeded")
    code, out, err = run(capsys, "index", modulus)
    assert (code, out) == (1, "")
    assert err.startswith("error[BoundExceeded]: ") and err.count("\n") == 1


def test_batch_goes_on_past_an_over_long_literal(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("factor 1" + "0" * 5000 + "\nindex 6\n", encoding="utf-8")
    code, out, err = run(capsys, "--batch", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "error[Parse]: integer literal of 5001 digits is too long (at position 0)",
        "50",
    ]


# --- single-command goldens ----------------------------------------------------------


def test_reduce_golden_json(capsys):
    code, (obj,), _ = run_json(capsys, "reduce", "2*L-1", "12")
    assert code == 0
    assert obj["schema"] == "hecke5.reduce/1"
    assert obj["e"] == 6
    assert obj["reduced"] == ["18*L+11", "96*L+60"]
    assert obj["factored"] == ["(2*L-1)*L**6", "12*L**6"]


def test_reduce_text(capsys):
    code, out, _ = run(capsys, "reduce", "2*L-1", "12")
    assert code == 0
    lines = out.splitlines()
    assert "e = 6" in lines
    assert "reduced = 18*L+11 / 96*L+60" in lines
    # a pair that is already reduced has e = 0 and prints unscaled
    code, out, _ = run(capsys, "reduce", "L", "1")
    assert code == 0
    assert out.splitlines()[:3] == ["e = 0", "reduced = L / 1", "factored = L / 1"]


def test_normalizer_golden_json(capsys):
    code, (obj,), _ = run_json(capsys, "normalizer", "16")
    assert code == 0
    assert obj["schema"] == "hecke5.normalizer/1"
    assert obj["modulus"] == "4"
    assert obj["h"] == 4
    assert obj["quotient"] == "Z4xZ4"


def test_normalizer_needs_no_factoring(capsys):
    # factor() refuses both: their norms share the cofactor
    # 99999999999029999999990591, past PRIMALITY_LIMIT with no small prime
    for modulus, h, quotient in (
        ("10000000000000*L+97", 1, "Trivial"),
        ("160000000000000*L+1552", 4, "Z4xZ4"),
    ):
        code, (obj,), _ = run_json(capsys, "normalizer", modulus)
        assert code == 0
        assert (obj["h"], obj["quotient"]) == (h, quotient)


def test_index_golden(capsys):
    code, out, _ = run(capsys, "index", "3")
    assert code == 0
    assert out.strip() == "10"
    code, (obj,), _ = run_json(capsys, "index", "3")
    assert code == 0
    assert obj["index"] == 10


def test_factor_golden(capsys):
    code, (obj,), _ = run_json(capsys, "factor", "5")
    assert code == 0
    assert obj["schema"] == "hecke5.factor/1"
    assert obj["unit"] == "1"
    assert obj["factors"] == [["2*L-1", 2]]


def test_cosets_shape(capsys):
    code, (obj,), _ = run_json(capsys, "cosets", "3")
    assert code == 0
    assert obj["size"] == 10
    assert len(obj["reps"]) == 10
    assert obj["reps"][0] == {"point": ["0", "1"], "word": ""}


def test_explain_json(capsys):
    code, (obj,), _ = run_json(capsys, "explain", "48")
    assert code == 0
    assert obj["final"] == "12"
    assert obj["half_power_bound"] == "12"
    assert [step["part"] for step in obj["steps"]] == ["3-part", "root5-part"]
    assert obj["steps"][0]["gcds"] == ["4", "4"]


def test_quotient_json(capsys):
    code, (obj,), _ = run_json(capsys, "quotient", "16")
    assert code == 0
    assert obj["order"] == 16
    assert obj["classification"] == "Z4xZ4"
    assert obj["profile"] == [[1, 1], [2, 3], [4, 12]]
    assert obj["normalizer_modulus"] == "4"


#: sha256 of the full stdout of ``hecke5 ARGV TAU``, pinned so that coset and
#: quotient output stays byte-identical whatever the table's internals.
COSET_GOLDENS = {
    ("--json", "cosets", "2"): "709338a0e2a01249e7f17f7d1214b293286dedde32557773a8f3a2f6354fb1e1",
    ("cosets", "2"): "6ae35ce870f17827d3073ac3ef28fab76142785e848399a3c39a603ffbf0f390",
    ("--json", "quotient", "2"): "76209759e50d0d3d895c713d65463f2c4dbbe125a71e2f6410954b9ca5deb937",
    ("--json", "cosets", "2+L"): "81c34e1ad4ebef227d18b69960690ef9281be392a4a3ac5528b96447a6f80bc8",
    ("cosets", "2+L"): "43a75037a836943c10b83d977324b24f7f13014a821ea00be0e82f3560d65e27",
    ("--json", "quotient", "2+L"): "b85a01138477c5a439e2877175c5b950fc4f2adef0d7aea1ca0cb2307c3bfc72",
    ("--json", "cosets", "4*L"): "1aa6db12961213c92776c8e51d701c9e71a6fcc099f9cecf7c43bece1b9ddf27",
    ("cosets", "4*L"): "2a9343ce23c706665fe345602a957316f2832ea85a10229c2d7d70249af000eb",
    ("--json", "quotient", "4*L"): "38988ccb0fb2610bf8befdfb6f5575ce7cf1afd07fe253b5950df5c505d6026d",
    ("--json", "cosets", "16"): "458f6c3d2d28b6ca498cebf850555fe31adc1f6ff7df8581f29c30d5a9983760",
    ("cosets", "16"): "33b971b3d70f7730a596cfb825b4b26f2a56c2e879d1994f6a219e99b1739004",
    ("--json", "quotient", "16"): "57e57343584bf8f836d616580e9913ac775d5aed2a628d428344de03d6a8866a",
    ("--json", "cosets", "20"): "2ae14156fc55736e1792dfe759a15e0e730babd1e8c051c7b3e58b18ced47b50",
    ("cosets", "20"): "bc95b037de8b8b437eb634609ab95d3d32af9b00bdc590e495a7d75731c108ae",
    ("--json", "quotient", "20"): "75fe6802464a9f0ebb277700d8cceb5a71e8a62e47e3184aa7e36d25cc078805",
    # index 208080, 24000000 and 20275200: past any coset table
    ("quotient", "404"): "67aca2a2192f6c328c1c47a6613d23303c9b9f820a00382e40b1a7ef14981d38",
    ("--json", "quotient", "404"): "7ae2a5867aa99d9e1544af273df10dd3ea91dd73c3a734a27700c0204e021213",
    ("quotient", "4000"): "6d71b18132d0146e9c868e2e5c056b6d3ea98c83fc1d88f295451b493038fa0f",
    ("--json", "quotient", "4000"): "88273468edeeeffd982da7333012961d0a9240aea5c263354b2ebe7899faf5fd",
    ("quotient", "16*L+4000"): "19674a8a14ab4d1e45eddfa9ed329e3d5e8ed186107a34399907f1394d3eb634",
    ("--json", "quotient", "16*L+4000"): "a07f2ed0c5be0da0fadb6f64b0d70a7864bab7faa0244bc8d6e1595b10e16865",
}


@pytest.mark.parametrize("argv", COSET_GOLDENS, ids=" ".join)
def test_coset_and_quotient_output_goldens(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COSET_GOLDENS[argv]


def test_closed_stdout_exits_1_without_traceback():
    # about 250 kB of output, more than a pipe buffer holds, so the process
    # is still writing when the reader closes its end
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, "-m", "hecke5", "cosets", "60"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"size = 6000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


#: sha256 of the full stdout of ``hecke5 --json elementary R --bound B``, with
#: its exit code, pinned so that verdicts and witnesses (the first in box
#: order) stay byte-identical whatever the chain's internals.
ELEMENTARY_GOLDENS = {
    ("3", "4"): (2, "85897f7364cbec3dc8195d7dd3dacb78a714ab89e0371bee64813e0a9ec9b51c"),
    ("3", "6"): (2, "3ee6a3a428088fd87d187278aed29c0a3e99a66b238f17c952b7e336849b8bf8"),
    ("3", "12"): (2, "b6386c0c4deccbe78eefcdf7d28a8d0bfdf1917e18120f52690493cf7c6d0a6b"),
    ("8", "4"): (2, "8e229ea81726f239ebb12f5cef3d0943cebd4d08c5e4543dffaa85fa79a0ee23"),
    ("8", "6"): (2, "abf640869bd3825581e89defced34c6a32b8924c84ac41ee6d9cc50bf245eaf6"),
    ("8", "12"): (2, "ebad848f722af78d1a5c969d4fe867571f5249dcdac40bbf30d91e985b0c6c92"),
    ("12*L+7", "4"): (2, "5f42af3ced4ce6bb1f95ade84c647913775822c7f7713f5682ec90e3f400fc51"),
    ("12*L+7", "6"): (2, "e7ca5ed409b03e1ad720d481f67af9cfd3889762ae6a48eed0bd6973912da780"),
    ("12*L+7", "12"): (2, "7ae5ef3c321b7955e3a83c84ffd7f317ddd8ed0f38e1c9c56860364e5b63dc35"),
    ("2*L-1", "4"): (2, "76523819c3339422da0fe4853a49ae9c9ca498b581c03c52faa7e3d2f745543c"),
    ("2*L-1", "6"): (2, "491ba4425989ab433700e081520abebbaa2ee1428eefab26c76aac91d898c941"),
    ("2*L-1", "12"): (2, "f23f180604537d018e7774d78c5080a6f928a44112210b4719c7d9021815a98a"),
    ("6", "4"): (2, "5d73f1107aec81bd5cc23f7bc0cc206ee2ced6b1551607c87dd1316b9fd5d023"),
    ("6", "6"): (2, "5f1a0411b9bf4b666f5719942eb5268cf9036e78b040fe6a2829cbc92e022037"),
    ("6", "12"): (2, "a49e940b61fa854727e3babc6ed184d22b3d92de0346a48e0b99e14d0f765bd8"),
    ("4", "4"): (0, "5578d81958e3e68aaf13e5149a1f10c3c1d9eaa4c45be5baf666e4496e62c202"),
    ("4", "6"): (0, "af37003ecfa25ff0998cd8b452734c40905b4c0f9a8bd9bad64c48ccd320039a"),
    ("4", "12"): (0, "2f76755fd8cc179a672757d08e83226999e4132504d633a0cdfcddf80ce10d3e"),
    ("2", "4"): (0, "e817b57392f9d5b5eb36f68a5de79d2060fd30e1721915f7d2fce6faa8ebc3fb"),
    ("2", "6"): (0, "e99fcea61d43d7dd857bab4d34449d6554269fd54bd1bd205e8d7b137aaabc92"),
    ("2", "12"): (0, "3948a4a2589ad889ce3f9a26007b8d230fd6091578dd7af20899a63fadca668a"),
    ("30", "4"): (0, "e2b74365d033610540ca8b8dd6213d7bc28ada8030472b88a4701a853cead48c"),
    ("30", "6"): (0, "8cf3fdbd44b16482c25859dd74d59e5ea1cd708156746b8777408f0bbb72ea36"),
    ("30", "12"): (2, "02d64fb2c07f4164a1101c31f33cb39a02ae4d3837c047c8a87a184045d9854f"),
    ("12*L-6", "4"): (2, "ff84173f8b04c50be96861b1528dcc89d07a8dc00ca5713ae79f5984893ca0fb"),
    ("12*L-6", "6"): (2, "a8f0bf78068083646bc3e2794d38821f686559bd2c25ff722e56061a6bc1d649"),
    ("12*L-6", "12"): (2, "87a97611f7c7fb7702816be8d17fd5e75ff6d10c14e1becf8dcd0d5514ef7974"),
}


@pytest.mark.parametrize("r, bound", ELEMENTARY_GOLDENS)
def test_elementary_output_goldens(capsys, r, bound):
    code, out, _ = run(capsys, "--json", "elementary", r, "--bound", bound)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == ELEMENTARY_GOLDENS[(r, bound)]


#: (exit code, sha256) of the stdout and stderr of ``hecke5 elementary R
#: --bound B`` in text mode, on the ELEMENTARY_GOLDENS keys.
ELEMENTARY_TEXT_GOLDENS = {
    ("3", "4"): (2, "9b9688b48390e7b15921177741b77d031883d7adc883178eccbe1297d79a651e"),
    ("3", "6"): (2, "fe985431f12ab049bcc3a69717fa76059ff96e45d1cab950e5ab536cea1970b0"),
    ("3", "12"): (2, "c6e4a5d94ee4b2baf1a840c5f13de9878d83d9ce793509fc18aa6787b59f3031"),
    ("8", "4"): (2, "649b4aea355f2add3c966c4c308313d61e2410b366d8815abd598806b390e91d"),
    ("8", "6"): (2, "02a790f337e281acb828b2f2c411b18dca82494040dea233aa391ac83dc07f4a"),
    ("8", "12"): (2, "9d103bccf1e85380768a7470a7f0083cd40cdf938e16b12b9f328459671d28d4"),
    ("12*L+7", "4"): (2, "e0c4742abd7a400e4bb6b7e3f2a90b3245445d3a9bc1446ebaa7e38efc08303c"),
    ("12*L+7", "6"): (2, "abb0c46f1d5de5119090f7434f01d3d28ba8bd526a27bf7af7354bae7a39d4cd"),
    ("12*L+7", "12"): (2, "fe81ae92511b1c81875fef8513b2accf9b9f915cfefb6d589d0eef107685ac9b"),
    ("2*L-1", "4"): (2, "04fc96b647ae867e8e7844f43c501c4b759017130b5e672587f732535f8de8d9"),
    ("2*L-1", "6"): (2, "a755cb882d11aafb6625149cc55499d4b71bab32670077e2e8bace83c8ce28a0"),
    ("2*L-1", "12"): (2, "25bf57cb4e42e2ecec7760fc57187a04d681ebe63e282031f1320f67c8cdb620"),
    ("6", "4"): (2, "d43375289b2a95eb6bac8b47bf906eaddd389ed99c7bfb1a1a498e6accd62659"),
    ("6", "6"): (2, "46c9ceeb438df71f600814af15ecc474d2f1fc255d37e685415a9acb94f44770"),
    ("6", "12"): (2, "a9f6d2f1ad1b41a9a16424f30063c3dd05c547ce82131083a49d08ec5677c87a"),
    ("4", "4"): (0, "25c32a233180c7d5a8ef649debf98c42a447ed9195233db5f2395f53152394b8"),
    ("4", "6"): (0, "cf40257c7276b80badddfcea84ff61bd15b31638e599e58b76ca625c98e54f1b"),
    ("4", "12"): (0, "d05fd3735c7eb633ce81ec24f53b3abc5ec41b2b65c6eb421a21ed291cbfac4a"),
    ("2", "4"): (0, "25c32a233180c7d5a8ef649debf98c42a447ed9195233db5f2395f53152394b8"),
    ("2", "6"): (0, "cf40257c7276b80badddfcea84ff61bd15b31638e599e58b76ca625c98e54f1b"),
    ("2", "12"): (0, "d05fd3735c7eb633ce81ec24f53b3abc5ec41b2b65c6eb421a21ed291cbfac4a"),
    ("30", "4"): (0, "25c32a233180c7d5a8ef649debf98c42a447ed9195233db5f2395f53152394b8"),
    ("30", "6"): (0, "cf40257c7276b80badddfcea84ff61bd15b31638e599e58b76ca625c98e54f1b"),
    ("30", "12"): (2, "e46d0bcd519f36e9a90f32064c8ae0d03161a9d6c1b34948235276f75c963547"),
    ("12*L-6", "4"): (2, "afedf17cd78cbac56b1bb2fede5e36bdc2c63421c54d4cc26d0565e1e6b3b10b"),
    ("12*L-6", "6"): (2, "b63ba61d0901b323c597e4c4d3b728e8671cc54c5ad3bdac05b76c011a4e054c"),
    ("12*L-6", "12"): (2, "fdcf3dac947d0cf1671ddd9addd04a800e36709f13ffe505a17d8d427bace9a1"),
}


@pytest.mark.parametrize("r, bound", ELEMENTARY_TEXT_GOLDENS)
def test_elementary_text_goldens(capsys, r, bound):
    code, out, err = run(capsys, "elementary", r, "--bound", bound)
    digest = hashlib.sha256((out + err).encode()).hexdigest()
    assert (code, digest) == ELEMENTARY_TEXT_GOLDENS[(r, bound)]


def test_elementary_strong_output_golden(capsys):
    code, out, _ = run(capsys, "--json", "elementary", "8", "--strong")
    assert code == 2
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5e2f1c0acff29e4f12ea6ebaa88dbc381a015b367fb302cb0ee4310d45518dbc"


#: sha256 of ``hecke5 --json reduce NUM DEN`` on 40 to 60 digit coprime pairs,
#: whose unit exponents (431 to 495) lie far beyond the unit-log table.
REDUCE_GOLDENS = {
    (
        "23555526113251212160050442747004652845620861*L-99617940621574780177597084513838320929483922",
        "-2141156097762074241290034138792437027878636*L+8659723942675487492117627422431875602615593",
    ): "78828f27fee21acab1e0429e929726720a1667e663d90e1ad031d15198d619dd",
    (
        "-839275335766900296243462368209903700914457131698697940855893*L+286510046586330156752529433569656072553417348465738657653505",
        "76362220176047681283490738282959827551617746471924829679745*L-62920153970205638028345463234861386005973492514462826441279",
    ): "c6bd67ab523be4cd8bf507783819eb6196a550fdd46c9a92b844279583088314",
    (
        "51342233784526442775593883914248024773707131*L+45837823013708140116008427576547528383356829",
        "-6235033273818610134801203977554561056175868*L+3427808280687517109941878149536692801224076",
    ): "3edc5d660162efd9b58e650f4d26811cdd7be51d0b06aebc9fab0a81b589e267",
    (
        "-78252571171856605558667504260245552290236624*L+18665832759673176010123755343391530807127931",
        "-275869785738264965089662017734069972385581*L-345539421844018129952599668944148885337324",
    ): "d0a97f0495bec16ee2ff3e038c0f435113192b468af9dcdb5b614b8b1d9405b7",
    (
        "19767013851801178444285291437936677904284721*L-90059357156234129233380173023367593081329727",
        "33813262620410527327601191245126185333896483*L+40700486680015826170749841004999162041292798",
    ): "10592ca183035cd4cb5f1cc2b693552241afe8bae01641f6c8dd3e57a0b5719d",
    (
        "95729345250214951337590698764479509294628575931120629730*L+53709382337389826481666048644118843725006120993078369541",
        "-9418803623160512257626290100464091926688179419375191408*L+1196345291075610097735833046975532477171604887624187000",
    ): "62141a715c4332d1048baed465eb4e86bd4267d31eb084c73f6e2caf893acba2",
}


@pytest.mark.parametrize("pair", REDUCE_GOLDENS)
def test_reduce_output_goldens(capsys, pair):
    code, out, _ = run(capsys, "--json", "reduce", "--", *pair)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_GOLDENS[pair]


#: (exit code, sha256) of the stdout and stderr of ``hecke5 reduce -- NUM
#: DEN`` in text mode, on the REDUCE_GOLDENS pairs, in order, and on three
#: small pairs.
REDUCE_TEXT_GOLDENS = dict(zip(
    (*REDUCE_GOLDENS, ("0", "1"), ("1", "0"), ("L", "1")),
    (
        (0, "a8b3343f039e66e48674d8f5b6eb913bbf598c22483f449d18c186db9de9f070"),
        (0, "8ae9516a7ca3ea5b0965646c3f820353b8f468e83c5078bf5bdbcb97a3b5a7f4"),
        (0, "2780849d08f1273e43aa3fe9ea63fe63ea4b75f67d60e50a481d7da645786283"),
        (0, "eac334f4d0fe1a2242563f1eaa46c78e80bb75ddd13852667c24544db4cc8d8d"),
        (0, "83de62d9d250a28fd9e07628450e587caffc630ba416378317d7def43d07931a"),
        (0, "52ac564075a64951dc2c6d901969fe131781447e15ebe76e4951977822a85103"),
        (0, "67a556ddc7176201f045f0b4a1f86855bda3c8a14c9ec999c5ddd8adbe562af9"),
        (0, "0b0b4add5e2a951740363aff361db110d4866fe151ce6ceecb8a10b00357f29e"),
        (0, "ce6fe2fa733f5c5abf5882e2d7d75e05e94b75f6bb648e9a81e47d6ca03e385a"),
    ),
    strict=True,
))


@pytest.mark.parametrize("pair", REDUCE_TEXT_GOLDENS)
def test_reduce_text_goldens(capsys, pair):
    code, out, err = run(capsys, "reduce", "--", *pair)
    digest = hashlib.sha256((out + err).encode()).hexdigest()
    assert (code, digest) == REDUCE_TEXT_GOLDENS[pair]


#: sha256 of ``hecke5 --json member -- A B C D`` on the matrices of seeded G5
#: words of 40 to 80 letters with no cancelling neighbours, pinning the word
#: that g5_decompose builds from every chain quotient.
MEMBER_WORD_GOLDENS = {
    "StttStttSTTSTTTSTSTTStStttSTTTSTSTTStStSTStSTSTSTSTTStSTSTTStSttSTStSttSTTTStSt": "42b59a064f0adecc8b18d8a8f141af4e2010504da88e42c2e30944ced911dadd",
    "StttStSttSTStSttSTTTSttStttSTTSTTTSTTTSTSTTStttStttSttSTTTS": "61f434c568ef741d4d8ebdabd584d05921baeb58941d05ed714ec1b1d6f03ff4",
    "StSTTStSttSTTSttSTSTTTSttSTTTSTStSTTTSttSt": "826e1bba20678b99523d00712beeb95d3dda48658f0c2b1da7538e5be6898877",
    "STSTTStSTTTSTTTStSTTStSTTStStttSTTTSttSttSttSttSTStttSTTTSttSTSttS": "12b829da0441070e60e9df75cca25dba61f858c3857c82b1d4c9f22a7e0cac5c",
    "STTStttSttStttSttSTTTSTTSttSttStttSttStttStttSttSTTTSttStttSTT": "3bfa9ce53dc139062e18109d486dc1a9f8cf99a6cc238a6e0c86bf898ed535b1",
    "STTSttSTTTStSttStttSTSTTTStttSTSTTTSTTSTSTSTTSTTST": "d68160c2e6e8b0d37275f4a2fe5c2e1ccbf64a8f5c5c69ce61e6ac2a534e78be",
    "SttSttSTTTSTStSttSttSTTTStStStttStttSttSTT": "2b0409ff10f02361bb78f506466b544d7d4d991a260fa3740b470b067649d982",
    "SttSTStttStSTTTSTTSTTSTTSTTSttStSttStttSttSTTTStttSttSttSTTSttStSt": "8a2e9dcfb61568ed34b8a86f62a5e7bd858fa81a2d99ca0649c4b8cec2b7a15b",
    "StStSTTSTTStStSTTStSttStttStttSTSTTStttStttSttt": "a71df0f74cf96a09725d5a93f34bd7a376078d374df16e44b17a586dae6329c2",
    "STTSttSTSTTStttSTTTSTSttSttSttSTTStStStttStttSttSTStttSttSTTSTSTTSTSTTStS": "b9e7ae62c3e0a7370988bdde7c6d6c11d377ef5d11a3bc3748c6f86e401a683b",
}


@pytest.mark.parametrize("text", MEMBER_WORD_GOLDENS)
def test_member_word_output_goldens(capsys, text):
    entries = [format_element(e) for e in eval_word(parse_word(text)).entries]
    code, out, _ = run(capsys, "--json", "member", "--", *entries)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MEMBER_WORD_GOLDENS[text]


#: (exit code, sha256) of ``hecke5 --json member -- A B C D 4*L+2``: two
#: members of the level-(4L+2) subgroup, then T with translation 1 in place
#: of L, and a group element whose corner 4L+2 does not divide.
MEMBER_LEVEL_GOLDENS = {
    ("824*L+569", "-1358*L-808", "6108*L+3552", "-9440*L-5951"): (
        0,
        "b82c26b906c57f788bdce75f8932d116c578fee9331ff7909904b93f66b0634a",
    ),
    ("4728*L+2921", "-816*L-504", "-2640*L-1632", "456*L+281"): (
        0,
        "d93dc6ea3db81f6f44e0310a8038defb86bc1a145a49658dd60b0e825adc808b",
    ),
    ("1", "1", "0", "1"): (
        2,
        "989e6a74148e410de46689130e5af968d3bd879f61f860c0ee62768b369d4500",
    ),
    ("-14*L-6", "6*L+5", "42*L+31", "-24*L-12"): (
        2,
        "8b5572da9c2d4460a93e9a6c2ade2c5e2c34e5ac17c539d3ab8a17322dbf2a32",
    ),
}


@pytest.mark.parametrize("entries", MEMBER_LEVEL_GOLDENS, ids=" ".join)
def test_member_level_output_goldens(capsys, entries):
    code, out, _ = run(capsys, "--json", "member", "--", *entries, "4*L+2")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == MEMBER_LEVEL_GOLDENS[entries]


@pytest.mark.parametrize("entries", MEMBER_LEVEL_GOLDENS, ids=" ".join)
def test_member_level_decomposes_at_most_once(capsys, monkeypatch, entries):
    calls = []

    def counted(m):
        calls.append(m)
        return reduction_module.g5_decompose(m)

    monkeypatch.setattr(cli, "g5_decompose", counted)
    monkeypatch.setattr(subgroups_module, "g5_decompose", counted)
    code, out, _ = run(capsys, "--json", "member", "--", *entries, "4*L+2")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == MEMBER_LEVEL_GOLDENS[entries]
    # the last golden's corner is not divisible by 4L+2: no word is needed
    assert len(calls) == (0 if entries[2] == "42*L+31" else 1)

    calls.clear()  # a zero level is rejected before any decomposition
    code, (obj,), _ = run_json(capsys, "member", "--", *entries, "0")
    assert (code, obj["code"], calls) == (1, "ZeroInput", [])


#: (exit code, sha256) of ``hecke5 --json VERB -- X`` for VERB in
#: FACTOR_FAMILY_VERBS, on seeded elements: norms p*q with p and q split
#: primes in (10**3, 10**6), most of them 12 digits; inert primes; the
#: ramified prime 5; a repeated prime; a bare unit; and each times a unit
#: +-L**k with 40 <= |k| < 400.  Pins the factoring, gcd and chain output.
FACTOR_FAMILY_VERBS = ("factor", "explain", "index", "normalizer")
FACTOR_FAMILY_GOLDENS = {
    "-2132957805196789254*L+3451198225377782111": (
        (0, "5271f9bf5965b8872739c2da8f4e42ea626047c5b449c4dda006d6fc826e0361"),
        (0, "eed66035447aab47495a7d535b3837f9693ea68464a3c7d001a23b3774dea5f6"),
        (0, "7e3bbcf5a1d5d2228d6ceb7c3bd152860cb3582ed9a594909a4eeb2252a69e6c"),
        (0, "c96f58b28148c174d602e4b16a62c19d14ba67d6565852e7e1c9b4e43100ec1b"),
    ),
    "-1964314633723084670590132643600544547512977038*L+3178327841962751401298439800528793193011681635": (
        (0, "1092f5a450a554042cdef95c364174b975825e5fb9e3fde47feab30fbde21f2d"),
        (0, "3771d8fac141360707ff66355e699b60cbda497a7044c28faf6e5327297e04ff"),
        (0, "5e121bf76dc12ec839c2e43f5e005410f89b4bbf215c267c590b87f66b83652d"),
        (0, "a561197813b91149618a7aa33bd9bf9f46ec3d06e4d0073eac6f830861a10828"),
    ),
    "-374167419417456135813151044578205836333523489896997543504572455241*L+605415602100281408431977652878887772330571913393248626779328971326": (
        (0, "0d6b11cee8a57bfa3259ca10e94a8922244a643734f1ae84e9343a3da69725d4"),
        (0, "c3b6c69b19be46000bdf2cc5a7211d1c03c2844f4bd4aa2178538b052fb564fc"),
        (0, "6e91d482be86fdb04fb5c0040693fed4ac1dadeb435a0d43989340ce9e0b8ee3"),
        (0, "d6c4f0636478b3e2c67b7d851194bd2acbcee7855b3a4be80bb0941f6970e65f"),
    ),
    "-173285595095464763196919159320237557257428431868317*L+280381982625214066539141782097187913403119380053739": (
        (0, "59912739d84210c06f7ebdae205dcd9ebe8d10d678d0568da77c278ce661780b"),
        (0, "0991011ce14d206728d0c2c1490fd7b2bbc4744787b37b8d0f74414e538f2811"),
        (0, "49ae08b122ce027fbed8f1cfc0fac3cf07dfab238d7123b1ec10a39f992687e2"),
        (0, "3e1370ce71da10fa2d5de72c5861cfd817d264a0b259c9dbfe7373683e794034"),
    ),
    "-325220744976304429129336577353866426320810119301041340881397462280975*L-200997474241917753023855708864687808906457347437060677628821140430168": (
        (0, "d14bc99f9f396c9c4b5991b7f056db337687f1e5e85571203bfda3b3d31e94f7"),
        (0, "7fb30b59de084cfb17e703d4a5fe18bca769730f7d4d542d181b7b43bcfc7823"),
        (0, "dc852005645aa122a142e10017cede7cc4265ed3adba676ac7c1cdc04d6df301"),
        (0, "0be5df231130f9bedba10d79596eb34cad0d38e63fcb7cff115fcb111cfdb954"),
    ),
    "-43079400212306865448824722660804989391475332954216850430934984999181539826459*L+69703933758471944464893778630765395698539848233335064110419814790120448220753": (
        (0, "6f244f9806bcfb61ec12b4ad31e01d17ef2e3e9ea3ebddd54565e806e0e2e8e3"),
        (0, "13e921ddec37478c0ddae06a1b7548a6f3187f5bb3525f15e05c471f177a711f"),
        (0, "4df4c5504762a628d33276d115a92d392b18954f87032fbf9e74263709e5a34b"),
        (0, "a8ed22a3fc3f33284a21c507f98b8f3556ae5edd2534a1d73731cd5f7aaf2f86"),
    ),
    "-314746456628753*L+509270464663917": (
        (0, "734712c742b369650530d287a344b8275c8b8db6650b7dcb4a7f069067e6dde6"),
        (0, "c543248f5682d9e7913be062767dbb11f064c11312675fd43e11c24ba5f67243"),
        (0, "8410b234e3bb9e0e8674e4f6eca6a4b1f420fbcc5ed992adf65ddec38ef662c6"),
        (0, "5352faedccea9251059269962b9f879f13b05f2777aebce8b3daafd8d7a65e0b"),
    ),
    "40313488985069196622054557337023731363110*L+24915106397867265747340255388642480906007": (
        (0, "aa3187566af986f8d7aee85a773b3d8b51edf10ecae2770ece9bb08fe39b0343"),
        (0, "54c709fa194b5f93af173a33ca0e70777fbc90f4fe0e4f30a40ba9da6d622d9b"),
        (0, "c97f652b9a69aa2ca529bb68832dd1f29777b3a93f3a7a00fdd9ccc03170d104"),
        (0, "dfe3a59251b09e900bc72918259df6526fafa6f580792afa4bbd4f05b510fe3c"),
    ),
    "670507": (
        (0, "dc5be30c538a31816d6eb2a2672b273ca9580f8f7ed5e9febd7943726dd278ee"),
        (0, "77645ca6c1803c7b19280f41b40b2f66cf28528f8cda92a0265dfa6263e6ad55"),
        (0, "c59aaa3af5b0ca5485776df822e938dd00edda13c9ef49413d384dba7f6b14cb"),
        (0, "41bf3428fb901f248da5c44cc7cded0141177772ff95541a6d843156fe9e2724"),
    ),
    "1129850267468965*L+698285867493980": (
        (0, "949982f6e0c31c33240551a6dc4dbdb0260d33fe1612e1d65078af53e4ecb9b9"),
        (0, "d74a172b0312fdd4b276936f93ad427c7ab10fa3963807bb351114d8b09c6405"),
        (0, "a60b4e49637f3c597fa9ee15f80e87c57c2469df4806b8a5d5033a871f52341d"),
        (0, "34ac41558a6f56864f3d1a786e07aaf2d87c86d593ff7f41d4c5077c12b97286"),
    ),
    "-134739796566005456134793764479160139732465972220*L-83273773915037736577727227756469055470695737100": (
        (0, "c438207695a3d631006aed0f7cc51fb18232eb838325547a61ce4f6631b09b4a"),
        (0, "06a6dcb9f1d71800eefe09d8d32c3e51e5dfde2761db186bcd6fd0f4e13e2293"),
        (0, "48e4ddbc6deec7dbb9a8531fb6702956dcd3280eb99529e8b609cced73c39e97"),
        (0, "c819b3ea40c760eea88392f6eefe23c8d979da1097ced167f63cda58b439a4d9"),
    ),
    "25299086886458645685589389182743678652930*L+15635695580168194910579363790217849593217": (
        (0, "0bd8c53c5824ef4d8cfcdf8a24a1cf3974078f20dd2a867cf382752d9c71e6d2"),
        (1, "7eed8fb72662962a0f68bc50a42672c15f809e37756fabe725c0321613b2660c"),
        (0, "7534edc9bc193551f5aeec114944ec643393809205571c3732bd4bffdb95775a"),
        (1, "7eed8fb72662962a0f68bc50a42672c15f809e37756fabe725c0321613b2660c"),
    ),
    "54920454162692092844167937329982166646283*L+33942707350124360594206328943030461148037": (
        (0, "0e10c3dcf845fbbc6ce62c0ec3a08d69a4f0f5e6793702b015ab4c22099feb33"),
        (0, "34245012f7bc02571b29ad9205bba15f4c89c02f6b45cb796f8ed9c14379ea97"),
        (0, "6b49811ef5dd7a436aec4d3b6904ca49d9ec6fd4f60e00042dad09f1c7d18993"),
        (0, "8f639b097b5df930a464a6b86af91d230db6291d270a9d3a9ceeffac64b9751b"),
    ),
}


@pytest.mark.parametrize("verb", FACTOR_FAMILY_VERBS)
@pytest.mark.parametrize("text", FACTOR_FAMILY_GOLDENS)
def test_factor_family_output_goldens(capsys, verb, text):
    code, out, _ = run(capsys, "--json", verb, "--", text)
    digest = hashlib.sha256(out.encode()).hexdigest()
    expected = FACTOR_FAMILY_GOLDENS[text][FACTOR_FAMILY_VERBS.index(verb)]
    assert (code, digest) == expected


#: (exit code, sha256) of the text output of ``hecke5 VERB -- X``, stdout
#: then stderr, for VERB in TEXT_VERBS, on the FACTOR_FAMILY_GOLDENS inputs
#: and on 48 and 400, where h = 4.  Pins each line's layout.
TEXT_VERBS = ("explain", "normalizer", "factor", "index")
TEXT_GOLDENS = {
    "-2132957805196789254*L+3451198225377782111": (
        (0, "0ef836b62a898f14ba167ff4f72ba9d937488a571d45bd844a89015f7f1471aa"),
        (0, "511e3889f3e1c57286a28a650b2f1de0c39591f29f3308edd891496a346962a0"),
        (0, "519f0a2c1302597fee5d2bbd54a7c5f9161f6e8c22ddd5fa98a2e390811969c0"),
        (0, "cdbdb30c0772b760b22421e2b8f06aba04e9812977cb00bbf7bdc132a2fad62c"),
    ),
    "-1964314633723084670590132643600544547512977038*L+3178327841962751401298439800528793193011681635": (
        (0, "0380543b76ad2a7584a6cc782e3325bfa995ffcbab3569dacab994b300714754"),
        (0, "b4601b77e9f031253f67172e69f2f68b9d39228370879b9a2ee24556c8a45ca5"),
        (0, "c61697544453db5a7fcdcf76159723d65e4ded6e1f59c42a3f20b14133d10697"),
        (0, "f1e7530674d88fae81b926e4672782c1584e87306c2973f64f8cd15e2e8ecd73"),
    ),
    "-374167419417456135813151044578205836333523489896997543504572455241*L+605415602100281408431977652878887772330571913393248626779328971326": (
        (0, "6345f0c178bf513b3b1582b9482e8521cbc9687f964c04297717a14e65aec4d2"),
        (0, "75d7495f4461fe7bc4b0b65a25b0568324eeffaf90c7fe43d041c9cb999323e8"),
        (0, "77552bce429d6c3e7a90c26b05496311992fbe72b28ff8ce7b6ce5b9a6c6b212"),
        (0, "f5326640e7dbcf92ca5fc9f9c67e72a6d0b67234fba1efd36efe01d87ca7ba49"),
    ),
    "-173285595095464763196919159320237557257428431868317*L+280381982625214066539141782097187913403119380053739": (
        (0, "246ae21846504bc82b037a45059763a6668b95e2bc8858fcddf114ffaad372c9"),
        (0, "7be96ace1521b44b4bd7392644161b8b00a52c7d7fd04e0fbbe5b8f0455de916"),
        (0, "ea2f74f6c41e138e77c2d993893ebe1cbe3d6974583587f5cc21a5238abf231c"),
        (0, "ea450a8f8c8a1ff711edda1d8425c2faa24fd554d3cff803828cc77257e129fb"),
    ),
    "-325220744976304429129336577353866426320810119301041340881397462280975*L-200997474241917753023855708864687808906457347437060677628821140430168": (
        (0, "02d2946984cfb8b3feb680a2f8642332070ec4ec426f16ed79496c14ddeda8d2"),
        (0, "e87abf14191a4879ab88944a12f4287921f15143175c51dbb5dc4eb46358a681"),
        (0, "3b912f70da15f06e392eee7514723ff509abedecb2d452f2f58a5a715162f59d"),
        (0, "2a2a43be90f3857ddeb74930fd7a4063cd80e35888e1d3f1eef67463790cbed9"),
    ),
    "-43079400212306865448824722660804989391475332954216850430934984999181539826459*L+69703933758471944464893778630765395698539848233335064110419814790120448220753": (
        (0, "810451ead4fe7a48209746f2d95fd35c294e334137eb3430922190a124db71a6"),
        (0, "227e745d4a451c77775cd08e8080b87983864e3c10b08f73a9bf95ba8ac678c4"),
        (0, "8bd93bcf0dada9a2ff66b047dd43939b2dea926b925eaaceebfea85b4ad0b782"),
        (0, "d8b863bfd6fe6cb61c18885d41d2cb2d3c6041e3ff3ac5e2ee686c4c12dbc66d"),
    ),
    "-314746456628753*L+509270464663917": (
        (0, "47e64ac938e40d37d7068a135e4820adb3d463e7fcc5b75e70d187043285fcc6"),
        (0, "5ec7f4a7679501349475aeb954fd8c5e6901fbd9220349bde28bf57627b613a1"),
        (0, "c29f5f0732860b376137d26935c564797fd8a863a6e90a9bd7af3189023f7fe2"),
        (0, "f0119a1918b97744048649a18173a01cb56f4a67a6f3460b2e9e225aa3266ee0"),
    ),
    "40313488985069196622054557337023731363110*L+24915106397867265747340255388642480906007": (
        (0, "aa0fbe169263ab5bc6ae92593bc894a1243634fb11c0b62cc96f1836d75df4b0"),
        (0, "b9f6ce9b187c89633f8a334956c19bf8dec11cb571af14ecd9224ddad0c24b2d"),
        (0, "762a0abf6e7093768def13f5f641d2aaa6c241799f73935a64e2e4b824e7e5f5"),
        (0, "4532e16406b9ddaa3d6ce216881e91c5a82d315167322d02033c7cd2dcbfdaa8"),
    ),
    "670507": (
        (0, "a1869d65c276b52d4594994a88963fd06e1d84d797ee1a0d0f695b5c42867885"),
        (0, "00eb5b3a5e8709e4932ce86198d4c4f75f5fd6d757797d39a715af6ef4f7d836"),
        (0, "ec1fba3ecb996d4ac7a06f1ed46676d9584740493e7d42b354d61e2d18576aa3"),
        (0, "b57e3a09edee6f6d51dec3437cde79a0bee529169258c1d1b499091316c7757c"),
    ),
    "1129850267468965*L+698285867493980": (
        (0, "6526c88dd70554e98d4b5ebbf45ad8d92462353bbea1855926823240752956b8"),
        (0, "5ad235a7c16c53d267be3d35e079b3aac6b7369e03d274831e6ba4448b5f8225"),
        (0, "d0beeb2f6cad1c71b2134bfdbf5ed3082c3c18ef6acb2f11fe39007ce2933f72"),
        (0, "a1846b4854c1252a91ebe9f00ea039841f082e906bb7662cbbdfad498f45bf6e"),
    ),
    "-134739796566005456134793764479160139732465972220*L-83273773915037736577727227756469055470695737100": (
        (0, "5470a8fa98667f558785f5fdc0db235840ec575c47e6566c029ac6f7fe1afae7"),
        (0, "e3855b355f7679ebdc6512a1f7acdbbb78addb90bafbe0f894a66a60e13d337d"),
        (0, "3152769c59396a92d9b98248c6e40afc64f71eeb237faaee6729938c5ecdea43"),
        (0, "e94e985a687fcc1a27c139a14a735ef8321e85643b7260b608fdbe2f3a50939c"),
    ),
    "25299086886458645685589389182743678652930*L+15635695580168194910579363790217849593217": (
        (1, "d5eee76511d0c954be4a3e817bceac197372d239809995faea732a7860ec6aa5"),
        (1, "d5eee76511d0c954be4a3e817bceac197372d239809995faea732a7860ec6aa5"),
        (0, "5847c464745b2386ae62ff665141a52114570d77b571ba465b8b02618a2bf979"),
        (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ),
    "54920454162692092844167937329982166646283*L+33942707350124360594206328943030461148037": (
        (0, "22c7f1e81f674215c6e4c2f1b4686102c787ec874d850c279f0f3497ffe58185"),
        (0, "4539bc3b0f3ecc089f358eaf5f18172f14ada59206d57e9cbb0b22323365d7ed"),
        (0, "7862d626abae06dcf26de4ccccad628b4634798fe44defd36b4d4c05b956b5b9"),
        (0, "58d9d8c5c533661acbfeeffb09e7bf4ad94db54a3cf7c72de71dc4e9a8527f61"),
    ),
    "48": (
        (0, "7bb8c697c71cd682c50d767118cba09078853246875a41c243f5de42c3b88c3a"),
        (0, "532288433aa652e9a0873581b1add161f8fb68478a4d18842df41e4a47e1eb7e"),
        (0, "5fa6b709b781899bc110bfd9e30b6142c17dfb46e4964f6f382b7add67a4226b"),
        (0, "569873a1f010b21daafc03ed90405dc2d9a1707647b6a2f3d251ecb409435b04"),
    ),
    "400": (
        (0, "224a5291a385315169b5d9ef8db68db69e73e1a9c95aca2cc29c23c07fd7b35a"),
        (0, "97b246ba5867c962f79fb487b8ac24bfb167e60555e33a6b3a0835236b77078a"),
        (0, "c7f8662e09addb75053b5f726ca45a0b3b744425d0f196a0450410ad3701e584"),
        (0, "7844fbd8ea47c57d25d9ea6da692db584ed0a9dbf31cdce8d5cb82ef7d0a86d7"),
    ),
}


@pytest.mark.parametrize("verb", TEXT_VERBS)
@pytest.mark.parametrize("text", TEXT_GOLDENS)
def test_text_output_goldens(capsys, verb, text):
    code, out, err = run(capsys, verb, "--", text)
    digest = hashlib.sha256((out + err).encode()).hexdigest()
    assert (code, digest) == TEXT_GOLDENS[text][TEXT_VERBS.index(verb)]


#: (exit code, sha256) of the stdout of ``hecke5 elementary R --strong``.
STRONG_TEXT_GOLDENS = {
    "4": (0, "b3337a98dd6cc6a6482e5f847e876e7d6de6a431b670f233f3a6acbfface42d3"),
    "8": (2, "e0574a8a6aac3e95242b97dbb9d49ffb9e294efd5efe3aec5569ffbe27cb1eae"),
    "12*L+7": (2, "f01db85ef11ae131f1941f2bf0a784732cf75f876fd8be7367db865ce56d8205"),
}


@pytest.mark.parametrize("r", STRONG_TEXT_GOLDENS)
def test_elementary_strong_text_goldens(capsys, r):
    code, out, _ = run(capsys, "elementary", r, "--strong")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == STRONG_TEXT_GOLDENS[r]


# --- membership and exit-code semantics ----------------------------------------------


def test_member_true_with_word(capsys):
    code, (obj,), _ = run_json(capsys, "member", "1", "L", "0", "1")
    assert code == 0
    assert obj["member"] is True
    assert obj["word"] == "T"


def test_member_false_exits_two(capsys):
    code, (obj,), _ = run_json(capsys, "member", "1", "1", "0", "1")
    assert code == 2
    assert obj["member"] is False


def test_member_modulus_variants(capsys):
    code, (obj,), _ = run_json(capsys, "member", "1", "0", "2*L", "1", "2")
    assert code == 0 and obj["member"] is True
    code, (obj,), _ = run_json(capsys, "member", "1", "0", "2*L", "1", "4")
    assert code == 2 and obj["member"] is False


def test_member_negative_entries_after_separator(capsys):
    code, (obj,), _ = run_json(capsys, "member", "--", "1", "0", "-2*L", "1", "2")
    assert code == 0
    assert obj["member"] is True


def test_member_bad_determinant_is_error(capsys):
    code, (obj,), _ = run_json(capsys, "member", "1", "0", "0", "2")
    assert code == 1
    assert obj["schema"] == "hecke5.error/1"
    assert obj["code"] == "BadDeterminant"


def test_elementary_counterexample_exits_two(capsys):
    code, (obj,), _ = run_json(capsys, "elementary", "3")
    assert code == 2
    assert obj["verdict"] == "CounterexampleFound"
    assert obj["witness"] == ["2*L+2", "2*L+1"]
    assert obj["denominator"] == "6*L+3"


def test_elementary_bound_flag(capsys):
    code, (obj,), _ = run_json(capsys, "elementary", "3", "--bound", "6")
    assert code == 2
    assert obj["bound"] == 6


def test_elementary_strong_cli(capsys):
    code, (obj,), _ = run_json(capsys, "elementary", "8", "--strong")
    assert code == 2
    assert obj["holds"] is False
    assert obj["failing_divisor"] == "8"
    assert obj["divisors"] == ["1", "2", "4", "8"]


def test_elementary_no_counterexample_exits_zero(capsys):
    code, (obj,), _ = run_json(capsys, "elementary", "4")
    assert code == 0
    assert obj["verdict"] == "NoCounterexampleUpTo"


# --- errors and usage ----------------------------------------------------------------


def test_no_verb_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert "error[Usage]" in err


def test_unknown_verb_is_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
    assert "error[Usage]" in err


def test_error_object_in_json_mode(capsys):
    code, (obj,), err = run_json(capsys, "factor", "0")
    assert code == 1
    assert obj == {
        "schema": "hecke5.error/1",
        "code": "ZeroInput",
        "message": "cannot factor zero",
    }
    assert err == ""


def test_error_text_mode_goes_to_stderr(capsys):
    code, out, err = run(capsys, "factor", "0")
    assert code == 1
    assert out == ""
    assert "error[ZeroInput]" in err


#: Malformed command lines: (words, whether the words themselves ask for
#: JSON).  As a batch line, ``--bound 3`` fails for its leading dash.
USAGE_ERROR_SHAPES = (
    ("--bound 3", False),  # no verb
    ("index", False),  # missing positional
    ("index 3 4", False),  # extra positional
    ("frobnicate 3", False),  # unknown verb
    ("index 3 --frob", False),  # unknown option
    ("cosets 3 --bound x", False),  # bad --bound
    ("index 3 4 --js", True),  # an abbreviation of --json counts
    ("index 3 4 --json", True),
    ("index 3 -- --json", False),  # after --, --json is a positional
)


@pytest.mark.parametrize("outer_json", (False, True), ids=("text", "json"))
@pytest.mark.parametrize("line, asks_json", USAGE_ERROR_SHAPES)
def test_usage_errors_follow_json_mode(tmp_path, capsys, line, asks_json, outer_json):
    json_mode = outer_json or asks_json
    outer = ["--json"] if outer_json else []

    def check_one_error(text):
        if json_mode:
            (obj,) = [json.loads(row) for row in text.splitlines()]
            assert (obj["schema"], obj["code"]) == ("hecke5.error/1", "Usage")
        else:
            assert text.startswith("error[Usage]: ") and text.count("\n") == 1

    code, out, err = run(capsys, *outer, *shlex.split(line))
    printed, silent = (out, err) if json_mode else (err, out)
    assert (code, silent) == (1, "")
    check_one_error(printed)

    path = tmp_path / "commands.txt"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, *outer, "--batch", str(path))
    assert (code, err) == (1, "")
    check_one_error(out)


@pytest.mark.parametrize(
    "line", [line for line, _ in USAGE_ERROR_SHAPES if not line.startswith("-")]
)
def test_usage_error_text_is_the_same_in_batch_and_argv(tmp_path, capsys, line):
    """A batch line goes to its verb's parser, the command line to the
    top-level one; both word every usage error alike, in text and JSON."""
    path = tmp_path / "commands.txt"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, *shlex.split(line))
    assert code == 1
    code, batch_text, _ = run(capsys, "--batch", str(path))
    assert (code, batch_text) == (1, out + err)  # one of them is empty
    code, (argv_obj,), _ = run_json(capsys, *shlex.split(line))
    assert code == 1
    code, (batch_obj,), _ = run_json(capsys, "--batch", str(path))
    assert (code, batch_obj) == (1, argv_obj)
    assert argv_obj["code"] == "Usage"


def test_help_is_the_same_in_batch_and_argv(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("reduce -h\n", encoding="utf-8")
    code, argv_out, err = run(capsys, "reduce", "-h")
    assert (code, err) == (0, "")
    assert argv_out.startswith("usage: hecke5 reduce [-h] [--json] [--bound INT] num den\n")
    assert run(capsys, "--batch", str(path)) == (0, argv_out, "")


@pytest.mark.parametrize("verb", ("quotient", "explain", "normalizer"))
def test_a_far_associate_of_the_level_is_answered_quickly(capsys, verb):
    """L**19000 * (3*L+7), a 7947-character argument, names the same level
    as 3*L+7; stepping to its canonical associate one power of L at a time
    took 3 to 6 s per command."""
    literal = format_element(lambda_pow(19000) * RingElt(7, 3))
    start = time.perf_counter()
    far = run(capsys, verb, literal)
    elapsed = time.perf_counter() - start
    assert far == run(capsys, verb, "3*L+7")
    assert far[0] == 0
    assert elapsed < 1.0, elapsed


def test_parse_error_carries_position(capsys):
    code, (obj,), _ = run_json(capsys, "reduce", "bogus", "12")
    assert code == 1
    assert obj["code"] == "Parse"
    assert "position 0" in obj["message"]


def test_bound_exceeded_error(capsys):
    code, (obj,), _ = run_json(capsys, "--bound", "5", "cosets", "16")
    assert code == 1
    assert obj["code"] == "BoundExceeded"


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("verb", ["cosets", "elementary"])
def test_bound_below_one_is_a_bad_range(capsys, verb, bound):
    message = f"bound must be >= 1, got {bound}"
    code, out, err = run(capsys, verb, "6", "--bound", bound)
    assert (code, out, err) == (1, "", f"error[BadRange]: {message}\n")
    code, (obj,), _ = run_json(capsys, verb, "6", "--bound", bound)
    assert code == 1
    assert (obj["schema"], obj["code"], obj["message"]) == (
        "hecke5.error/1", "BadRange", message
    )


def test_help_and_version_exit_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "--version")[0] == 0


# --- parser shape --------------------------------------------------------------------


def action_shape(action):
    """The fields of an argparse action that decide what it parses and shows."""
    kind = action.type.__name__ if action.type is not None else None
    return (
        tuple(action.option_strings), action.dest, action.nargs, action.default,
        action.const, kind, action.metavar, action.help,
    )


def parser_shape(parser):
    """(top-level actions, (verb dest, verb metavar), per verb: name, help
    line, handler name and actions), in the order the parser holds them."""
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in verbs._choices_actions}
    return (
        tuple(action_shape(a) for a in parser._actions if a is not verbs),
        (verbs.dest, verbs.metavar),
        tuple(
            (
                name,
                helps[name],
                sub.get_default("handler").__name__,
                tuple(action_shape(a) for a in sub._actions),
            )
            for name, sub in verbs.choices.items()
        ),
    )


SUPPRESS = "==SUPPRESS=="
HELP_ACTION = (("-h", "--help"), "help", 0, SUPPRESS, None, None, None,
               "show this help message and exit")
COMMON_ACTIONS = (
    HELP_ACTION,
    (("--json",), "json", 0, SUPPRESS, True, None, None,
     "emit one JSON object (with a 'schema' field) instead of text"),
    (("--bound",), "bound", None, SUPPRESS, None, "int", "INT",
     "search/enumeration bound (elementary box half-width, coset cap)"),
)
MODULUS_ACTION = ((), "modulus", None, None, None, None, None, None)

#: Every action of the parser as a literal.  Unlike argparse's ``--help``
#: layout, these fields do not vary with the Python version.
PARSER_SHAPE = (
    (
        *COMMON_ACTIONS,
        (("--version",), "version", 0, SUPPRESS, None, None, None,
         "show program's version number and exit"),
        (("--batch",), "batch", None, None, None, None, "FILE",
         "run one command per line of FILE (verb first); one result per command"),
    ),
    ("verb", "VERB"),
    (
        ("factor", "factor a ring element", "_cmd_factor", (
            *COMMON_ACTIONS,
            ((), "element", None, None, None, None, None, "ring element, e.g. 5 or 12*L+7"),
        )),
        ("reduce", "reduced form of NUM/DEN", "_cmd_reduce", (
            *COMMON_ACTIONS,
            ((), "num", None, None, None, None, None, None),
            ((), "den", None, None, None, None, None, None),
        )),
        ("index", "subgroup index in G5", "_cmd_index", (*COMMON_ACTIONS, MODULUS_ACTION)),
        ("cosets", "coset table of G0(TAU)", "_cmd_cosets", (*COMMON_ACTIONS, MODULUS_ACTION)),
        ("member", "membership of [[A,B],[C,D]] in G5 or G0(TAU)", "_cmd_member", (
            *COMMON_ACTIONS,
            ((), "entry", 4, None, None, None, "E", "matrix entries, row-major"),
            ((), "modulus", "?", None, None, None, None, None),
        )),
        ("normalizer", "normalizer of G0(TAU) as G0(TAU/h)", "_cmd_normalizer",
         (*COMMON_ACTIONS, MODULUS_ACTION)),
        ("explain", "derivation of the normalizer bound", "_cmd_explain",
         (*COMMON_ACTIONS, MODULUS_ACTION)),
        ("elementary", "search for reduced x/(R*y) with x**2 != 1 mod R", "_cmd_elementary", (
            *COMMON_ACTIONS,
            ((), "r", None, None, None, None, None, "the modulus R"),
            (("--strong",), "strong", 0, False, True, None, None,
             "require every divisor of R to pass"),
        )),
        ("quotient", "normalizer/subgroup quotient table", "_cmd_quotient",
         (*COMMON_ACTIONS, MODULUS_ACTION)),
        ("selftest", "run the built-in reproduction suite", "_cmd_selftest", (
            *COMMON_ACTIONS,
            (("--only",), "only", None, None, None, None, "TEXT",
             "run only items whose name contains TEXT (e.g. 'table', 'quotient')"),
        )),
    ),
)


def test_parser_shape_is_pinned():
    assert parser_shape(cli.build_parser()) == PARSER_SHAPE


def test_docstring_and_readme_list_the_verbs_of_the_table():
    verbs = [name for name, *_ in cli._VERBS]
    assert verbs == [name for name, *_ in PARSER_SHAPE[2]]
    listing = cli.__doc__.split("Verbs\n-----\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split()[0] for line in listing.splitlines()] == verbs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    table = readme.split("| Verb | Does |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    assert [row.split("`")[1].split()[0] for row in table.splitlines()] == verbs


# --- batch mode ----------------------------------------------------------------------

BATCH_LINES = """\
reduce 2*L-1 12
index 3
# a comment

member 1 1 0 1
normalizer 16
factor 0
"""


def test_batch_json_order_and_exit(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text(BATCH_LINES, encoding="utf-8")
    code, objects, _ = run_json(capsys, "--batch", str(path))
    assert code == 1  # one line errored
    assert [obj["schema"] for obj in objects] == [
        "hecke5.reduce/1",
        "hecke5.index/1",
        "hecke5.member/1",
        "hecke5.normalizer/1",
        "hecke5.error/1",
    ]


def test_batch_json_byte_identical(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text(BATCH_LINES, encoding="utf-8")
    _, first, _ = run(capsys, "--json", "--batch", str(path))
    _, second, _ = run(capsys, "--json", "--batch", str(path))
    assert first == second


def test_batch_refutation_exit(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("member 1 1 0 1\nindex 3\n", encoding="utf-8")
    code, _, _ = run_json(capsys, "--batch", str(path))
    assert code == 2


def test_batch_all_success_exit(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("index 3\nnormalizer 16\n", encoding="utf-8")
    code, objects, _ = run_json(capsys, "--batch", str(path))
    assert code == 0
    assert len(objects) == 2


def test_batch_text_one_line_per_command(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("reduce 2*L-1 12\nindex 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "--batch", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("e = 6; reduced = 18*L+11 / 96*L+60")
    assert lines[1] == "10"


def test_batch_line_flags_override(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("elementary 3 --bound 6\n", encoding="utf-8")
    code, (obj,), _ = run_json(capsys, "--batch", str(path))
    assert code == 2
    assert obj["bound"] == 6


def test_batch_plus_verb_rejected(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("index 3\n", encoding="utf-8")
    code, _, err = run(capsys, "--batch", str(path), "index", "3")
    assert code == 1
    assert "error[Usage]" in err


def test_batch_lines_that_are_not_commands_fail_in_stream(tmp_path, capsys):
    path = tmp_path / "commands.txt"
    path.write_text("index 3 --batch x\nx\n--json index 3\nindex 3\n", "utf-8")

    def check_usage_messages(messages):
        assert messages[0] == "unrecognized arguments: --batch x"
        # argparse words the choice list differently across Python versions
        assert messages[1].startswith("argument VERB: invalid choice: 'x' (")
        assert messages[2] == "batch lines start with a verb, got '--json'"

    code, out, err = run(capsys, "--batch", str(path))
    lines = out.splitlines()
    assert (code, err, len(lines), lines[3]) == (1, "", 4, "10")
    assert all(line.startswith("error[Usage]: ") for line in lines[:3])
    check_usage_messages([line.removeprefix("error[Usage]: ") for line in lines])

    code, objects, err = run_json(capsys, "--batch", str(path))
    assert (code, err, len(objects)) == (1, "", 4)
    assert all(
        (obj["schema"], obj["code"]) == ("hecke5.error/1", "Usage")
        for obj in objects[:3]
    )
    check_usage_messages([obj.get("message") for obj in objects])
    assert objects[3] == {"schema": "hecke5.index/1", "input": "3", "index": 10}


def test_error_codes_are_pinned():
    codes = sorted(cli._error_code(t.__new__(t)) for t in cli._ERROR_TYPES)
    assert codes == [
        "BadDeterminant", "BadRange", "BothZero", "BoundExceeded", "FactorCap",
        "Integrity", "IterationCap", "NotADivisor", "NotAGroup", "NotAUnit",
        "NotCoprime", "NotReduced", "Parse", "UnitModulus", "Usage", "ZeroInput",
    ]


def test_batch_missing_file_is_error(capsys):
    code, _, err = run(capsys, "--batch", "/nonexistent/commands.txt")
    assert code == 1
    assert "error[Usage]" in err


def test_command_roundtrip():
    words = parse_command("reduce 2*L-1 12")
    assert words == ["reduce", "2*L-1", "12"]
    assert parse_command(shlex.join(words)) == words
    quoted = parse_command("factor '12*L + 7'")
    assert quoted == ["factor", "12*L + 7"]
    assert parse_command(shlex.join(quoted)) == quoted


def test_parse_command_splits_as_shlex():
    # plain characters, then every character that needs shlex: quotes,
    # backslash, and whitespace that str.split splits on but shlex does not
    plain, special = "ab1-# \t\r\n", "'\"\\\x0b\x0c\x1c\x1f\x85\xa0\u2003\u3000"
    rng = random.Random(18)
    for _ in range(20000):
        line = "".join(
            rng.choice(special if rng.random() < 0.1 else plain)
            for _ in range(rng.randint(0, 12))
        )
        try:
            words = shlex.split(line, comments=False)
        except ValueError:
            with pytest.raises(UsageError, match="unbalanced quoting"):
                parse_command(line)
            continue
        if words and not words[0].startswith("-"):
            assert parse_command(line) == words, repr(line)
        else:
            with pytest.raises(UsageError):
                parse_command(line)


def test_parse_command_long_unbalanced_line_is_usage_error():
    with pytest.raises(UsageError, match="unbalanced quoting"):
        parse_command(" " * 10**4 + "'")


# --- selftest ------------------------------------------------------------------------


def test_selftest_full_run(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "42/42 passed" in out
    _, json_out, _ = run(capsys, "--json", "selftest")
    # full text and JSON output, pinned before the chain moved to raw integers
    assert [hashlib.sha256(o.encode()).hexdigest() for o in (out, json_out)] == [
        "597c8ad9d2df7c55c8b64ba7148ff66022f5650a5f0f80ab1208072882b51648",
        "e07bfb65311b0da8242b589e272c5ae28642e6dcb1e3a78ec73c8e84cf354cb8",
    ]
    assert "PASS table 2/1L" in out
    assert "PASS forms (2*L-1)/192" in out
    assert "PASS conjugation level 9" in out
    assert "PASS indices up to norm 400" in out
    assert "PASS quotient 16" in out
    assert "PASS elementary 12*L+7" in out
    assert "FAIL" not in out


def test_selftest_only_filter(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "quotient")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "2/2 passed"
    assert all(line.startswith("PASS quotient") for line in lines[:-1])


def test_selftest_only_no_match_is_error(capsys):
    code, _, err = run(capsys, "selftest", "--only", "3.2")
    assert code == 1
    assert "error[Usage]" in err


def test_selftest_json(capsys):
    code, (obj,), _ = run_json(capsys, "selftest", "--only", "forms")
    assert code == 0
    assert obj["schema"] == "hecke5.selftest/1"
    assert obj["passed"] == obj["total"] == 3
    assert obj["failed"] == 0


def test_selftest_negative_control_reports_table_failures(capsys, monkeypatch):
    real = reduction_module._pseudo_quotient

    def crooked(xa, xb, ya, yb):
        q = real(xa, xb, ya, yb)
        # the remainder x - q*y*L, with y*L = yb + (ya + yb)*L
        if xa - yb * q or xb - (ya + yb) * q:
            return q + 1
        return q

    monkeypatch.setattr(reduction_module, "_pseudo_quotient", crooked)
    code, out, _ = run(capsys, "selftest", "--only", "table 3/")
    assert code == 1
    assert "FAIL table 3/" in out
    assert "0/3 passed" in out

    # a wrong frozen expectation fails its item through _CheckFailure alone
    monkeypatch.undo()
    (n, e, num, den), *rest = cli._FORM_ROWS
    monkeypatch.setattr(cli, "_FORM_ROWS", ((n, e + 1, num, den), *rest))
    name = "forms (2*L-1)/12"
    detail = "got e=6, 18*L+11/96*L+60; want e=7, 18*L+11/96*L+60"
    code, out, _ = run(capsys, "selftest", "--only", "forms")
    assert code == 1
    assert out.splitlines()[0] == f"FAIL {name}: {detail}"
    assert out.splitlines()[-1] == "2/3 passed"
    code, (obj,), _ = run_json(capsys, "selftest", "--only", "forms")
    assert code == 1
    assert obj["items"][0] == {"name": name, "ok": False, "detail": detail}
    assert (obj["passed"], obj["failed"], obj["total"]) == (2, 1, 3)


#: For each check function of the selftest: its ``--only`` filter, the name it
#: calls from ``cli``, a stand-in for that name built from the real one, the
#: detail of each item that then fails, and how many items pass of how many.
SELFTEST_CHECK_CONTROLS = {
    "conjugation": (
        "normalizes", lambda real: lambda m, tau: True,
        {"conjugation level 9": "lower shear by 3L must not normalize level 9"},
        (0, 1),
    ),
    "indices": (
        "index_in_g5", lambda real: lambda tau: real(tau) + 1,
        {"indices up to norm 400": "coset count 5 != index 6 at 2"},
        (0, 1),
    ),
    "quotient": (
        "quotient_table", lambda real: lambda tau: real(RingElt(4, 0)),
        {"quotient 16": "got order 4 Klein4; want order 16 Z4xZ4"},
        (1, 2),
    ),
    "elementary": (
        "is_g5_elementary", lambda real: lambda r: real(RingElt(3, 0)),
        {
            "elementary 2": "verdict CounterexampleFound",
            "elementary 4": "verdict CounterexampleFound",
            # r = 3's witness is checked against 8, and its pair has gcd 2
            "elementary 8": (
                "NotCoprimeError: gcd of 2*L+2 and 16*L+8 is not a unit"
            ),
            "elementary 12*L+7": "witness x = 2*L+2, want 3*L**3 = 6*L+3",
        },
        (1, 5),
    ),
}


@pytest.mark.parametrize("only", SELFTEST_CHECK_CONTROLS)
def test_selftest_negative_control_reports_check_failures(capsys, monkeypatch, only):
    name, crooked, failures, (passed, total) = SELFTEST_CHECK_CONTROLS[only]
    monkeypatch.setattr(cli, name, crooked(getattr(cli, name)))
    code, out, _ = run(capsys, "selftest", "--only", only)
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {item}: {detail}" for item, detail in failures.items()
    ]
    assert lines[-1] == f"{passed}/{total} passed"
    code, (obj,), _ = run_json(capsys, "selftest", "--only", only)
    assert code == 1
    assert {i["name"]: i["detail"] for i in obj["items"] if not i["ok"]} == failures
    assert (obj["passed"], obj["failed"], obj["total"]) == (
        passed, total - passed, total
    )


@pytest.mark.parametrize(
    "witness, detail",
    [
        ((RingElt(1, 0), RingElt(0, 1)), "x**2 = 1 (mod r) for x = 1"),
        ((RingElt(1, 0), RingElt(1, 0)), "1/8 is not a reduced form"),
    ],
)
def test_selftest_checks_the_witness_of_elementary_8(
    capsys, monkeypatch, witness, detail
):
    real = cli.is_g5_elementary
    monkeypatch.setattr(
        cli, "is_g5_elementary", lambda r: real(r)._replace(witness=witness)
    )
    code, out, _ = run(capsys, "selftest", "--only", "elementary 8")
    assert code == 1
    assert out.splitlines() == [f"FAIL elementary 8: {detail}", "0/1 passed"]


# --- fuzz: every command ends in an answer or a coded error ----------------------------

#: Largest chain quotient of a drawn ``reduce`` pair, as in the benchmark:
#: word_string writes T**q as q letters, so a quotient between about 10**7
#: and 2**63 allocates gigabytes.
FUZZ_MAX_QUOTIENT = 10**4

#: Malformed elements, Unicode digits (the decimal ones parse) and odd spacing.
FUZZ_ODD_ELEMENTS = (
    "", " ", "L*", "2*", "*L", "++1", "1 2", "2*L*L", "L L", "L+", "(1)", "1e5",
    "0x1F", "2*-L", "-L", "--1", "²", "2²", "½", "Ⅻ", "٣*L+٣", "１２*L-３", "𝟗",
    "2\u00a0*\u00a0L",
)

FUZZ_ONE_ARGUMENT = (
    "factor", "index", "cosets", "normalizer", "explain", "elementary", "quotient",
)
FUZZ_VERBS = ("reduce", "member", *FUZZ_ONE_ARGUMENT)


def _fuzz_element(rng):
    if rng.random() < 0.2:
        return rng.choice(FUZZ_ODD_ELEMENTS)
    return format_element(RingElt(rng.randint(-30, 30), rng.randint(-30, 30)))


def _fuzz_reduce_pair(rng):
    """A pair of up to 40 digits, or of 300 to 400 (past the double range,
    where the chain's refreshes shift their products), whose chain
    quotients are small."""
    while True:
        size = 10 ** rng.choice((rng.randint(1, 40), rng.randint(300, 400)))
        num, den = (
            RingElt(rng.randint(-size, size), rng.randint(-size, size))
            for _ in range(2)
        )
        quotients = []
        reduction_module._chain(num, den, quotients)
        if max(map(abs, quotients), default=0) <= FUZZ_MAX_QUOTIENT:
            return [format_element(num), format_element(den)]


def _fuzz_cases(seed, count):
    """Seeded command lines, each as its words: verb, options, "--" (left out
    of one line in five), arguments."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        verb = rng.choice(FUZZ_VERBS)
        options = []
        if verb == "reduce" and rng.random() < 0.8:
            args = _fuzz_reduce_pair(rng)
        elif verb == "reduce":
            args = [_fuzz_element(rng), _fuzz_element(rng)]
        elif verb == "member" and rng.random() < 0.7:
            tokens = [("S", 1), ("T", 1), ("T", -1), ("T", 2)]
            word = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 12)))
            args = [format_element(x) for x in eval_word(word).entries]
        elif verb == "member":
            args = [_fuzz_element(rng) for _ in range(4)]
        else:
            args = [_fuzz_element(rng)]
        if verb == "member" and rng.random() < 0.5:
            args.append(_fuzz_element(rng))
        if verb == "cosets":
            options = ["--bound", rng.choice(("5", "50", "500"))]
        if verb == "elementary":
            options = ["--bound", rng.choice(("-1", "0", "1", "2"))]
            options += ["--strong"] if rng.random() < 0.3 else []
        separator = ["--"] if rng.random() < 0.8 else []
        cases.append([verb, *options, *separator, *args])
    return cases


def _digits(rng, count):
    return str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(count - 1)
    )


_rng = random.Random(4300)
#: Literals at the interpreter's 4300-digit int-to-str limit.  Those read in
#: full go only to verbs that stay fast on them: 10**k factors into 2s and 5s,
#: and the elementary box at bound 1 is small.
FUZZ_LIMIT_CASES = [
    ["factor", "1" + "0" * 4298],
    ["index", "1" + "0" * 4299],
    ["cosets", "1" + "0" * 4299],
    ["normalizer", "--", f"-{_digits(_rng, 4299)}*L+7"],
    ["quotient", _digits(_rng, 4300)],
    ["elementary", "--bound", "1", "--", _digits(_rng, 4300)],
    ["elementary", "--bound", "1", "--", f"{_digits(_rng, 4299)}*L-1"],
    *([verb, _digits(_rng, 4301)] for verb in FUZZ_ONE_ARGUMENT),
    ["reduce", "1", _digits(_rng, 4301)],
    ["reduce", f"L*{_digits(_rng, 4301)}", "1"],
    ["member", "1", "0", "0", "1", _digits(_rng, 4301)],
]


@pytest.mark.parametrize(
    "cases",
    [
        *(pytest.param(_fuzz_cases(seed, 100), id=f"seed{seed}") for seed in (1, 2)),
        pytest.param(FUZZ_LIMIT_CASES, id="digit-limit"),
        pytest.param(
            [["reduce", "100000000000000000000", "1"]],
            id="quotient-past-2**63",
            marks=pytest.mark.xfail(
                strict=True,
                raises=OverflowError,
                reason="word_string writes T**q as q letters; open defect, "
                "ROADMAP item 4",
            ),
        ),
    ],
)
def test_every_command_ends_in_an_answer_or_a_coded_error(capsys, tmp_path, cases):
    """Each case on the command line and all as one batch, in text and JSON,
    ends with exit 0, 1 or 2, prints one result or coded error, and raises
    nothing (an exception escaping ``main`` is a traceback)."""
    for case in cases:
        code, out, err = run(capsys, *case)
        assert code in (0, 1, 2) and "Traceback" not in out + err, case
        code, objects, err = run_json(capsys, *case)
        assert code in (0, 1, 2) and err == "" and len(objects) == 1, case
    path = tmp_path / "commands.txt"
    path.write_text("".join(shlex.join(case) + "\n" for case in cases), "utf-8")
    code, out, err = run(capsys, "--batch", str(path))
    assert code in (0, 1, 2) and err == "" and out.count("\n") == len(cases)
    assert "Traceback" not in out
    code, objects, err = run_json(capsys, "--batch", str(path))
    assert code in (0, 1, 2) and err == "" and len(objects) == len(cases)
