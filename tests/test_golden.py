"""Golden digests: every byte the commands write, pinned by sha256.

One small fixed dataset goes through ``synth``, two ``report`` runs (defaults,
and ``--unique-domains`` with a partial ``--window`` and ``--k-max 3``),
``validate --out`` and ``oracle-check --out`` (with and without
``--unique-domains``), each in a fresh interpreter under two hash seeds.
Every written file must match the digest committed below.

A change meant to alter output values replaces ``GOLDEN`` with the table this
test prints on a mismatch, and says in CHANGES.md which files moved and why.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SYNTH_CFG = (
    "n_users = 120\nn_domains = 30\nfollow_homophily = 0.3\n"
    "base_follow_prob = 0.08\nattention_bias = 2.0\nactivity_rate = 8\n"
    "retweet_rate = 6\nduration = 100000\nseed = 5\n"
)

GOLDEN = {
    'data/edges.csv': '79833ba0a64cb5914812837b1c9a0865e9a4c558f16e910e93114db775fae5f5',
    'data/events.jsonl': 'c3f7942b9ca1e0f5bcdae40a8484fb1fc9ba16a45d7b0b8e07102d242aa7be74',
    'data/scores.csv': '0c069a5047dccbc99ade57e08c707f574af8cd19a27f26ff764b770bd945f6ca',
    'data/truth.json': 'a0f67a8a07632559f1eee770f62c3bd08e935746514c1aff99b8f212e273593a',
    'oracle.json': '94d703eedfccaa015a547f8e2a0ca412116ba2cb734b1799d77a2df247f626dc',
    'oracle_unique.json': '3a66e6d8a1123ec157735dcd1c04c7bab98e2c24e6a135f61c0d5b07b65f3080',
    'report/activity.csv': 'c60e990a9324a5d8d81a8ce40052c681b25c7454a98992a843af424e5146f1be',
    'report/class_fractions.csv': '1d44923e4220249b456dc594a5d78ab61eb17a9f0bad61f0c3aebdb1457baeb3',
    'report/congruence.csv': 'fc762c908d14759c6333bc26dc6493f5223f8edc01137d10377c5bd1a0ddcd87',
    'report/delta_vs_ms_k1.csv': 'deae395aa265bcf606e98d197d915e22463a91f829b5a41f96e47375e45c8e65',
    'report/delta_vs_ms_k10.csv': '9abeabdf7ffcf52dfa6fd5804444730dfc685a8b9da981eda067b7d24d1124cc',
    'report/delta_vs_ms_k2.csv': '302ed495a274903e6f0bd5a4c330fc7be882ca1b5e1144e32d4f652a4b54b4cc',
    'report/delta_vs_ms_k3.csv': 'df969b2e72bdd5ab7a3f28ac99def72f00477d01eef6c1e6157b1b1f63968860',
    'report/delta_vs_ms_k4.csv': '70b6867168148edaec3ff1058e38485b526e5ff3b098ed469a867dab80be222b',
    'report/delta_vs_ms_k5.csv': '0623f18091c2ff35db61e4071ecbf6fb4750bc9632974e9a3207c09433290f7d',
    'report/delta_vs_ms_k6.csv': '46d8ab2da66cef5b807ac45857cab495be54c29d9c546567f5cbb2f563803162',
    'report/delta_vs_ms_k7.csv': '5e1711dbb04161cf2ec678c669451e4ee5f963c3bdcab2568dc75870b08c1d42',
    'report/delta_vs_ms_k8.csv': '78abe4bd3cf91bc4921b0d1c7162893bcab5a402207b759fe67abe73c7e546e5',
    'report/delta_vs_ms_k9.csv': '2523ad34f2ebfc47e9cb95e062330b319943c77f428911f782716a682f37439e',
    'report/echo_heatmap_f.csv': 'e46a6c38cc702ce1bb0d7def828ecc49366f335122c061190a76918e7b6e6058',
    'report/echo_heatmap_r.csv': '398265658fd9950242310e4e48b8773567cac7c1a4be89e5416ae1a8d61c9051',
    'report/entropy.csv': 'c7e4e08591611e7dd405fb2c1c3aaefa03fd6dfd1fc4d40ab5c592f74238818c',
    'report/graphs.cache': 'b067083056cf5d1bbe244076b077a42dafb553e7145575dfed6c728ed46253cc',
    'report/overlap_curve.csv': '27bf92b54ca8bfd8b565c0abe5b028c0f88160528ff0cf8a05d3eef824a18b47',
    'report/overlap_user_k1.csv': 'bb25b84a828cdd7b663970ab6a4a179c0dc1a688a8bddc718790a381222df5e0',
    'report/report.json': '75fdb2d0568f08b046c6da272984a926f9c9ea5e620f70d9f4e5d47c691de4cd',
    'report/sampled_scores.csv': 'f837eb7f9e04da13ae47aa39957e307f742e350bb68b847020e3a90249c320f0',
    'report/user_metrics.csv': '783dfa2af67a1da8fb2f78f6199117488e81ef6ed75c1e4c4b002dce69abc5f3',
    'report_unique/activity.csv': 'e9e5e90ed3c5245c1352e3d3dd45f1cca5ff8ef97f4c5b50878cd076b525df5f',
    'report_unique/class_fractions.csv': 'f672d977073215e804b994866ba85b95be24320ae3d647b70109222d347699ac',
    'report_unique/congruence.csv': 'b017dac292bcb0d3eeb83227505d6b4b098d8875b188c899c886a3d889676539',
    'report_unique/delta_vs_ms_k1.csv': 'c27435a29dc0e7698138b6549d3319bb8e13a532eb64bc389d734e80f106f935',
    'report_unique/delta_vs_ms_k2.csv': '15c026983f8bf58d7ef2d7574eb161a8e830dda3fde81881424158a8c9a7802f',
    'report_unique/delta_vs_ms_k3.csv': 'a693b7d2ffb2ed170734e944f0541b5a78f32ca167c29e5fb96fb935a12c7dbf',
    'report_unique/echo_heatmap_f.csv': '3aa5891e55f2e67cca213151b82804de3a3275d1330b7c8c4ae79f0598484d27',
    'report_unique/echo_heatmap_r.csv': 'ae55d71e77e09bb08aa9b38fc9c407a75acc3e17ddf3b5094351335740a87b7a',
    'report_unique/entropy.csv': 'cdc29df6c38f11a4c013d6f9b57cb23261bd7952aa3842cd1be8eb546970dccf',
    'report_unique/graphs.cache': '3796ca1aca0a93d4d37bdd25e20db43d95696de105071bf88a0a564484a975df',
    'report_unique/overlap_curve.csv': 'd16c93e814b64f941a2e1bb730bd1d6d55f792511ba99930f2e6d954844ea001',
    'report_unique/overlap_user_k1.csv': 'e05eac08cbff41c1693b896364e37121e1d8de3595842c4c02841afcaa67dba9',
    'report_unique/report.json': '4350386e4465579af75ab96f29be21c130285b70833bdcd6fc0ccdb23a709e0e',
    'report_unique/sampled_scores.csv': 'f391070641f8b2e1268b74983881b021767a5b28b4be749d7f6474d83e686bc1',
    'report_unique/user_metrics.csv': '45dd8e41ec0d2eb9eba6f3d65dbe48f40f77a4346398037186e854f08bd5496b',
    'validate.json': 'd0c64f4855374c3e885f9f02b8473cc48ca419802e7ce0caa90ee9abc5e127c2',
}


# runs the CLI in an interpreter that refuses every scipy import, as one
# without scipy installed would
WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, RefuseScipy())
from echoscope.cli import main

sys.exit(main(sys.argv[1:]))
"""


def echoscope(argv, hash_seed, without_scipy=False):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    program = ["-c", WITHOUT_SCIPY] if without_scipy else ["-m", "echoscope.cli"]
    result = subprocess.run(
        [sys.executable, *program, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, (argv, result.stderr[-2000:])


def run_all(root, hash_seed):
    cfg = root / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    data = root / "data"
    echoscope(["synth", "--config", str(cfg), "--out", str(data)], hash_seed)
    inputs = [
        "--scores", str(data / "scores.csv"),
        "--edges", str(data / "edges.csv"),
        "--events", str(data / "events.jsonl"),
    ]
    report = ["report", *inputs, "--reps", "20", "--sample-n", "200"]
    echoscope([*report, "--out", str(root / "report")], hash_seed)
    echoscope(
        [*report, "--out", str(root / "report_unique"),
         "--unique-domains", "--window", "20000..80000", "--k-max", "3"],
        hash_seed,
    )
    echoscope(["validate", *inputs, "--out", str(root / "validate.json")], hash_seed)
    oracle = ["oracle-check", *inputs, "--max-events", "5000"]
    echoscope([*oracle, "--out", str(root / "oracle.json")], hash_seed)
    echoscope([*oracle, "--unique-domains", "--out", str(root / "oracle_unique.json")], hash_seed)
    cfg.unlink()  # an input, not an output
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("hash_seed", [1, 2])
def test_every_output_file_matches_its_golden_digest(tmp_path, hash_seed):
    digests = run_all(tmp_path, hash_seed)
    table = "".join(f"    {name!r}: {digest!r},\n" for name, digest in digests.items())
    assert digests == GOLDEN, f"fresh digests (PYTHONHASHSEED={hash_seed}):\nGOLDEN = {{\n{table}}}"


def test_report_and_oracle_check_write_the_golden_files_without_scipy(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    data = tmp_path / "data"
    echoscope(["synth", "--config", str(cfg), "--out", str(data)], 1, without_scipy=True)
    inputs = [
        "--scores", str(data / "scores.csv"),
        "--edges", str(data / "edges.csv"),
        "--events", str(data / "events.jsonl"),
    ]
    report = ["report", *inputs, "--reps", "20", "--sample-n", "200", "--out", str(tmp_path / "report")]
    echoscope(report, 1, without_scipy=True)
    oracle = ["oracle-check", *inputs, "--max-events", "5000", "--out", str(tmp_path / "oracle.json")]
    echoscope(oracle, 1, without_scipy=True)
    cfg.unlink()
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert len(written) == 4 + 22 + 1  # inputs and truth, the report, the oracle diff
    assert written == {name: GOLDEN[name] for name in written}
