"""Frozen executed episodes.

Each cell pins the sha256 of three outputs of ``run_cell`` at seed 2 with 60
trials: the ``--no-timing`` report CSV, the per-trial CSV and the
``emit_trace`` text.  Together they cover every executed step (state,
knowledge, action, cost paid, observation), the exit cost, failures and
replans, so a change in the episode loop or in either executor's action
choice (including the order in which a determinized trial draws its ties and
its outcomes from one rng) fails here.  Six bundled instances run every
algorithm; ``grid8`` and ``rover20`` are left out for time.
"""

import hashlib
import io
from functools import lru_cache
from pathlib import Path

import pytest

from gussp.domains import load_instance
from gussp.harness import (
    CellSpec,
    emit_trace,
    run_cell,
    strip_timing,
    write_report_csv,
    write_trials_csv,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
NAMES = ("line4", "ev8", "search4", "grid8_landmark", "grid12", "rover6")
CELLS = (
    ("vi", "hpg"), ("lao", "hpg"), ("lao", "hmin"), ("flares", "hpg"),
    ("flares", "hmin"), ("det-mlg", "hpg"), ("det-cg", "hpg"),
)

# (instance, algorithm, heuristic): sha256 of (report, trials, trace)
FROZEN = {
    ('line4', 'vi', 'hpg'): (
        "ea27751e6ae3e4716631d828e40ec8f0fbd1ac0b273a85e6294a970682d90e7b",
        "d96e55dbd600fb840816269ae9c93fe1838a79e958bb81bcf0dc3bcbd4018481",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('line4', 'lao', 'hpg'): (
        "397eaf960639a9393defa91e048b7a98d25bc21f669d998eee895abea5520728",
        "86887f71a547355ba7b979e026c503e5e631dda48c0f0cead5f6fc7c854be430",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('line4', 'lao', 'hmin'): (
        "0f0c43af75498bc8ef331294e06e518693e5a3b67002d0733b423f6b05cee998",
        "c7bf38065beaa75b788d3c5990bb8a50c4e7139bd2be7457d1b6b3a168685a4e",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('line4', 'flares', 'hpg'): (
        "18c946d2425130fb52bff6a3cdfdf8a98578a09553e5fec5ed52f794f9386d66",
        "c44c68c3b74dbd7b8deada6cec94b2f50b85f34db70ff491418394849fda75ad",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('line4', 'flares', 'hmin'): (
        "d6edf8d9a9f33983972c2131367de273dca181df535034feecce0803e20dba6e",
        "86f34576a48d10807c1ed18407698fd0848ab45d5fe9a329b11dfc4a2c7ea29d",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('line4', 'det-mlg', 'hpg'): (
        "1021fc4ebf9def3c3553aa0cc57a9e20905021339e37980aaa085d35501f1020",
        "fb866c4f0e9e894ef61985153e556642fea3afc131736949ddcfe27b6a97d64f",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('line4', 'det-cg', 'hpg'): (
        "8c3d94c8ef27b592a30254cb08d621c065576337759e38aa8c789b7bb91de48e",
        "67e3485f62810bc367860aac569859d15d03b320c0cbf801cdc3db9281408ae0",
        "73e2a08f1329c5b19d6de436708db45f8469543bcd6eec3c25cb91acd51bc836",
    ),
    ('ev8', 'vi', 'hpg'): (
        "7ad16367089fba90dcceb0d6def1a6f0a12711502b8412512000546b1282f97c",
        "7b5af13f8ce3b07a814ea0fc5497e4d4214bf9c516ce2e4cd7bae2e1caf54ecf",
        "51029dca8e211dd372337e6ce7fe539437281d645e620a1f71d93658e4bad523",
    ),
    ('ev8', 'lao', 'hpg'): (
        "97c61d5ba6f928f33ffa60148a2381bcf80ac93eeca32ba8676adebfcd41b15d",
        "b573fe0476d211411ac863c72450670e861a7f276a4a6a9d2a72fa0a7de78804",
        "51029dca8e211dd372337e6ce7fe539437281d645e620a1f71d93658e4bad523",
    ),
    ('ev8', 'lao', 'hmin'): (
        "8391f8d11dfe76e4be5bc053154687453148652febfe004566c2d9f68de037d1",
        "7134b5c3dc157f37532c96256f765dc690f69f419aa71d8a43325b56b93d0799",
        "51029dca8e211dd372337e6ce7fe539437281d645e620a1f71d93658e4bad523",
    ),
    ('ev8', 'flares', 'hpg'): (
        "e5dcb09f5d7a9fdcedfc6d838107ff1d5b3457cfabb632f138b31c23bf1d8306",
        "a7a16cdb1fd6cc470940eebf7845365e2cced6eb446c2151599ee5a031fbf78a",
        "51029dca8e211dd372337e6ce7fe539437281d645e620a1f71d93658e4bad523",
    ),
    ('ev8', 'flares', 'hmin'): (
        "d839dcfb6302d176ae79a878446d7696da93d59744d173d0abb232bc2fe39259",
        "cfc2b6807a4607d802c0c827b623c61b98410146f5f1503dc7676ddd5af9b29a",
        "51029dca8e211dd372337e6ce7fe539437281d645e620a1f71d93658e4bad523",
    ),
    ('ev8', 'det-mlg', 'hpg'): (
        "bcd2fe99a0b43744711387aa3f3360ef215f662852545af97d3e8ab64adcafcc",
        "dcea5a3e59758e3e5a6046fe998784ff5818847abe60680dcd890d04dc4b3c6f",
        "ece0dcd3921303127356fb3d72acf9c8bb4ed4f7bcce37102a3c0cc0a144261b",
    ),
    ('ev8', 'det-cg', 'hpg'): (
        "afc77f297faa7e5bad96b4d712833087252ad559c1cdc8ff0b678e9eb460da47",
        "1c1c96ea9806816616aa0b34edc707227c3848610dd908a39568b7bb44a4730d",
        "010ef4f47453abd25e1ed9f44534be63244f4dfc53606375853f71081cdea89f",
    ),
    ('search4', 'vi', 'hpg'): (
        "328adc16a14da71a5aee67e9174a65dc53db47d4fd9bb9f258b41f930b0ad9f0",
        "f3a7f25cfb3475f86a9a54beb610e4a856b3a458f430654cba33fa70005af3af",
        "a0ca6cde5333a489c26d4436631dcc25ada65a7aa0e2aeeda06fc7ae053c4108",
    ),
    ('search4', 'lao', 'hpg'): (
        "a097bb453b3fcfb0ca39b8efb8e59d5c03d30efaac4a040c58c6f5e7572a914f",
        "52cf0d138490bd148ef564e76d72a74980f15697de2fd3d7f1f119d3bf498e4f",
        "a0ca6cde5333a489c26d4436631dcc25ada65a7aa0e2aeeda06fc7ae053c4108",
    ),
    ('search4', 'lao', 'hmin'): (
        "a750aff61f938b93d04e6e5bef8d7014072ccb36cac080a3cc3fa3859064ee3d",
        "722aeb98c76b35dff514466245ccc2ad42713aa45f3d5421bd574ab5bf7c2cb4",
        "a0ca6cde5333a489c26d4436631dcc25ada65a7aa0e2aeeda06fc7ae053c4108",
    ),
    ('search4', 'flares', 'hpg'): (
        "2fcc4ca74a511fbb3c8be1fa213a387e363555631d561d798d67f71c66b9c353",
        "4d0149d52301d55d80c3b7c8e4429aa66de5a01a0170a8dbc243c2b7e9d1ab8f",
        "d57ea31c496536ec4e1325b952385c8654554079d51ad9a08291aa9994c3972b",
    ),
    ('search4', 'flares', 'hmin'): (
        "dbd17c0cf579626e803497ff29d23e8725f7f5c2bb8978e2ba66b5e168f22f0f",
        "ced1c31d6b9a575f7f697f5003fca6418a301fa0f40f8adf9b37a31e3f39f06d",
        "128338f3b04c8ea01c32f8e74491866c39999aa3c503b58a7d602d7b59abde90",
    ),
    ('search4', 'det-mlg', 'hpg'): (
        "8c6e88a69f4c9423745bdd784701c086de10f8b2067666ae76cdfdf877b0a24a",
        "ea68ee07d6dd4d27b434f4855933e017d8ca3c7e6dfca93328802592b7f90678",
        "fd9854dcb6d57cc7bdef8901b366e5908133a30a9e065d935d12af8e068b183c",
    ),
    ('search4', 'det-cg', 'hpg'): (
        "0cd7f461817532f7623d32cfa20e061f5377afcf1ea32a3a5907d2a13c877c14",
        "1c4479a4b1721ec37c7d3f1fa8c7ff8048929e3830c73e62d561786003749a9a",
        "a0ca6cde5333a489c26d4436631dcc25ada65a7aa0e2aeeda06fc7ae053c4108",
    ),
    ('grid8_landmark', 'vi', 'hpg'): (
        "b8914913dd3eb132d71f15a07ed0daecbdd83e328685d2701e1b23286d09b501",
        "544e0db95c6eab21913f645ef120e3e8163f468b97564c273a1a27f04ef6dbaf",
        "8f392e19d54ce7dc0c289dd1d89695b770271a912fb1ef94ff4a5d079f4de768",
    ),
    ('grid8_landmark', 'lao', 'hpg'): (
        "e9eba2c8fba5f5a3e31a72390706e1ecd1feb08121f23eba857220211de8f4fb",
        "62cf6ffbb743cd3594a4be59db92d8acee3e8eb207edcccea6a71fc1f05e9d73",
        "1ec1538c9919e54e0bee8456600348de1d120a9b9107779a2c2e58f1ce56c9ac",
    ),
    ('grid8_landmark', 'lao', 'hmin'): (
        "2f2793ec3bc7b720be797b9dfc8d4aa2b4d152e9f0330a105655456a794546d5",
        "8056c88f4946debd0b11f51738f1da50041ac7e8a3ac89f1a0f426c9165d0b8a",
        "1ec1538c9919e54e0bee8456600348de1d120a9b9107779a2c2e58f1ce56c9ac",
    ),
    ('grid8_landmark', 'flares', 'hpg'): (
        "9c461ce70dba132a3b057dc1288646b6674e29ea521ea92a6bfad09d11d1f3be",
        "674dbd3c6d4627fbd11155a1334fbfcb34dace075462d352acba2839deebaa36",
        "e730b7a6f7001a183d1d01650f228ed5702303e0f710286db70c75b46668b6cb",
    ),
    ('grid8_landmark', 'flares', 'hmin'): (
        "76f82b7c56c7186271ebcab2b9b7169b386fdb29143b71fbe121f4f674d16512",
        "b374973f31b11fdf722477b8c587e5cedc3915a0f2984c73b66b21db9bd742b0",
        "2776637b0de29e3a8f0690515db40fe76c59f666e5e959a048d386f54d43b6ee",
    ),
    ('grid8_landmark', 'det-mlg', 'hpg'): (
        "d649f84692864ee379d80b9c17654852213ccd55c7f22f0a0725a1edd3f7b222",
        "02b8cb7c5b13d849bee9e35e810f0b5485682ba1deff23bfbc98c26ac1c07fff",
        "a8b73b42cd414ed698d46eca4185758a64dbc6a3ea5bb81c269a32c642b0c6bd",
    ),
    ('grid8_landmark', 'det-cg', 'hpg'): (
        "771d5177335b3b9ea9a3f3753d93ab9852fa0c365f3f5d7e52c7ade8a9506206",
        "781b450205474bfc0ea338ec057ade9cf4ddccb4f13fed9abbacdc33f68a12a3",
        "4dd5969b84502a184a6ee36a0df838ed13dab27187b2110c4c347c3422c67d69",
    ),
    ('grid12', 'vi', 'hpg'): (
        "1248c8b02caada66deb0c8c6a4c09c8aff0ae05cfaa33fb0fed21de5765c6f37",
        "37ac32724451b86fc51b1f375337931b27fc1373642450aa8ed1adc42aa599bb",
        "7e6cf7d00e6dff4e5eee437a7f2a6a07f72f225f6c496f85e0af48b764fa0623",
    ),
    ('grid12', 'lao', 'hpg'): (
        "e2ad927f94d137526c3cb8fe39ed263c26f726a758213439d8b5a25126cb5499",
        "82ecc3ba29e3e990918d43f61b961f4b5880b3d59cbe4b3c7cdd8333f19d4697",
        "27cadfd231a56e8038e7921662aac04d3fd6671f3b8550b3684d520800115d87",
    ),
    ('grid12', 'lao', 'hmin'): (
        "769fb964a1707dda66b9a4825243c0cbaa7e35595e073d9e6e68892b77a8bd0f",
        "8a102a938b37db63e1353629efae7d13363eab0e89aa9f92cd27262fbad342f3",
        "d845459791ca00559320af4ac1ef13b7036257d4fdd1b2d30aab6d0a27726af8",
    ),
    ('grid12', 'flares', 'hpg'): (
        "0749e9ee6b97b5609cb41e2042690eb72b7c29e043703b3cee13e26f2ef1dd2f",
        "8d8a5ea3f35b59f9b73fa937ac7ab39cf9eff9ade7f16129f49d729f73761f8d",
        "b4df1d0271858b78fbd8d85eab0b05dcda6b8dbf258e5458b742010901b3b12c",
    ),
    ('grid12', 'flares', 'hmin'): (
        "e9e08532b94cdf53095268aeeb859866db0b474a96ad05490ac6d121771bc1eb",
        "e45eb6e9fd036532b0879b5d25e7be1023d1a2175b09c5d07e43a3a4f3c7d508",
        "4c6beee732d68ac11c3479b4e0f61d040b904a5cc0708584014592f2230e1a1f",
    ),
    ('grid12', 'det-mlg', 'hpg'): (
        "df4feeb2ec851d509f19157d810b6a092332f85d4d206a302d4ce71692c79b54",
        "d937f3f6bd27b1f540f25211afd0f483c899f2d3a5941cecad7b8cc20cb210fd",
        "3137e6fb5451c6a9279836e588182c6d29dee3f1146da2530f09b584d30f77da",
    ),
    ('grid12', 'det-cg', 'hpg'): (
        "8f86daeb625be8cd28570b7ca45a18e275cec1f046a62d74ed72ceece5292288",
        "1df9144b76a6d55c9162f7f370112ff173f5bda1e1e2c94207a8e4d452d2d805",
        "8d151c8952fcb49e7355e79246daa433abfc8c2295b86aeee796aa78ffa7dd2c",
    ),
    ('rover6', 'vi', 'hpg'): (
        "d0e573d161f2eeab9333dd66f26f9ad1625c5c4e690a43d5c630cee3b51cc0a7",
        "03524b0e6b976d88b42cd873cb458d0a138c05673262df4dfbaac277bcae93d0",
        "4ffeac23ea419c09e217c901ed043a36fb6e9922e2d0377b12df0787128e35d3",
    ),
    ('rover6', 'lao', 'hpg'): (
        "81eaeb984532bce61ad0134978cbb1576797364f5ad625e845d1988362657c2e",
        "baf963454cfe11db683674bd570f53d60c55b1df8c29620feac05f65d9edd473",
        "2599d80d41ac1d61104c3249d589f915d61d360ac77225feeea5d028e911b73a",
    ),
    ('rover6', 'lao', 'hmin'): (
        "9eadfab66613b89cea3ca34009fcec46d54c2d5be822876ff3938231db49edec",
        "bc5e23bc7eec0da6a0770c28661720da130fd99e33a4b52d5e6da61b363ce903",
        "1524d6db21e2265f8158c8fa38f897c1dfbb5d371b011944632e03c4f222b424",
    ),
    ('rover6', 'flares', 'hpg'): (
        "7086d0a7a779a685a6af4b6dae6fafb806ff9ebbe24fdb861923b7a1aadf3d69",
        "8db8b4e72a16777f75ab621e0a74e5bedca7b0bca6606751fb6ce8666b352149",
        "ea34bc9f10fa07b9d343f9ad7d4cf4d679815974e4fdd0ad1f3a71b1177f9fb7",
    ),
    ('rover6', 'flares', 'hmin'): (
        "aa6075238f27549626336aded67bb92cd83fe366bed29d0c7cffa5154b2abf9a",
        "8b82941ea2d3f277ebddd0c6bb5573e7467e3bfa11d5dbcb65f6f2a14d3d525b",
        "699e488d8def8be53ef0951720083d708f33d500f2a7fb4c17b55278f22aeed5",
    ),
    ('rover6', 'det-mlg', 'hpg'): (
        "49bdfb4e242159c242707f7f099407f8265ccecac5a54d8a9a958f7d2986dd9a",
        "a6df909a6d6e877b096f56a9b671bc1c04b0ea0a5699e898609c6b1b8d181d4d",
        "d776d26e0dfe6933ea79d996c4b88597bed3c3eb9d2f316f981fb1a0fe2a833e",
    ),
    ('rover6', 'det-cg', 'hpg'): (
        "d77dd57e39bdc539c947333748309a189e5c873aaa1bef35868c6c2b43ab9d1a",
        "ca43feb4f350dbeb97ce7645383d968e2fc67bdab36c64d944fb58c56e7defc0",
        "7ec31ce087daea52c727f1887859d352d7deffaf517b6d1dc2c0d1f6a9957386",
    ),
}


@lru_cache(maxsize=None)
def _model(name):
    return load_instance(str(INSTANCES / f"{name}.txt"))[1]


def episode_digests(name, algorithm, heuristic):
    spec = CellSpec(name=name, algorithm=algorithm, heuristic=heuristic,
                    trials=60, seed=2)
    result = run_cell(_model(name), spec, collect_traces=True)
    outputs = [io.StringIO() for _ in range(3)]
    write_report_csv(outputs[0], [strip_timing(result.report)])
    write_trials_csv(outputs[1], result.trials)
    emit_trace(outputs[2], result.traces)
    return tuple(hashlib.sha256(o.getvalue().encode()).hexdigest() for o in outputs)


@pytest.mark.parametrize(
    "key", [(n, a, h) for n in NAMES for a, h in CELLS], ids="-".join,
)
def test_executed_episodes_frozen(key):
    assert episode_digests(*key) == FROZEN[key]
