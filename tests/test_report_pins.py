"""Analyze reports pinned byte for byte across sequences, ideals and modes.

Every analysis mode reads each candidate's balls radius by radius and folds
the readings into a classification.  The .json and .csv digests and the
meta route counts below were written when each mode walked its candidates
in a loop of its own; a rewrite of the walks must leave them as they are.
Since then the limit-point radii count their route in the meta file, and
the nested-1-2-3 reports were re-pinned when trees with powers leaves of
one base learned their infiniteness: 1/2, whose index set is {3, 9, 27,
...}, is now a limit point.  Horizons stay at 2^12, so the file runs in
seconds.

Level-set reports also read each letter subset's norm once per report,
however many candidates and radii give that subset.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.cli import main
from idealconv.ideals import builtin
from idealconv.sequences import (AnalysisParams, RadiusSchedule,
                                 lambda_estimate, lambda_q_estimate)

F = Fraction

_PROG = {"kind": "progression", "first": 1, "step": 2}
_POW3 = {"kind": "powers", "base": 3}
_NEST_BODY = {"letters": ["0", "1/2", "1"], "sets": [
    {"kind": "intersection",
     "parts": [_PROG, {"kind": "complement", "part": _POW3}]},
    {"kind": "intersection", "parts": [_PROG, _POW3]},
    {"kind": "progression", "first": 2, "step": 2}], "name": "nested-1-2-3"}
# odd non-powers of 3, odd powers of 3, evens: no closed form for the first
# two, so their level sets are read from tail values
NEST = "alphabet:" + json.dumps(_NEST_BODY, separators=(",", ":"))
SHAPE = ["--horizon", "4096", "--radii", "4", "--pitch", "1/16"]


@pytest.mark.parametrize("seq, ideal, mode, code, json_digest, csv_digest, "
                         "routes", [
    ("charblocks:2", "Z", ["--mode", "all"], 0,
     "656eb426c01a01fe24cb23630dc539669d01861bce202efe3fc39d9d2e27786b",
     "33bfcd4c5b7722d911817992a3d4b64ad340e959f27f7f13cd515832c86e8d42",
     {"gamma": {"witness-blocks": 8}, "lambda": {"tail-trend": 8},
      "limit_points": {"infiniteness": 8}}),
    ("charblocks:2", "Z", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "89d5cbe4c01f2379e4a1e61a7939f06ab615c2d5eca6230b92a47e1c72433b44",
     "aa2395795f1b7238a8de50bc306997c24e5e420f4d0def99a4acd9fca85c4c39",
     {"lambda_q": {"tail-trend": 8}}),
    ("charblocks:2", "Z", ["--mode", "convergence", "--ell", "1"], 0,
     "ed3500685fc4980f3304744fefb482de8fc3b4ec2a31bc2c5cc8731b633dc1b6",
     None,
     {"convergence": {"cross": {"witness-blocks": 8}, "primary": {"witness-blocks": 4}}}),
    ("charblocks:2", "summable", ["--mode", "all"], 0,
     "344feb06d7dd3c30ca7d0567bc2c9b85c1aae92f3fd1d75db37e8ab0caba8f89",
     "33bfcd4c5b7722d911817992a3d4b64ad340e959f27f7f13cd515832c86e8d42",
     {"gamma": {"witness-blocks": 8}, "lambda": {"tail-trend": 8},
      "limit_points": {"infiniteness": 8}}),
    ("charblocks:2", "summable", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "bcf481d07e2681c1e67f0ca4a8722304a73e2870766d70a624a61edaf53d52a3",
     "7195df938030f1907d7265bf7a7b3cbb765f63c710dfaaafbe75c34e344c66f0",
     {"lambda_q": {"tail-trend": 8}}),
    ("charblocks:2", "summable", ["--mode", "convergence", "--ell", "1"], 0,
     "ca19f53cebdd647e74b6d91cb108c2e69991bbea57e9c02103e4caf84f38fa06",
     None,
     {"convergence": {"cross": {"witness-blocks": 8}, "primary": {"witness-blocks": 4}}}),
    ("charblocks:2", "gdi", ["--mode", "all"], 2,
     "7cca61fb95498a8255db8566860794281a51d6a1b22a17f07eaf4699a7c34ed6",
     "d9a20cf1de6a4378335da67601d8d05abf2329413b068fa237da700640cbcd32",
     {"gamma": {"tail-trend": 8}, "lambda": {"tail-trend": 8},
      "limit_points": {"infiniteness": 8}}),
    ("charblocks:2", "gdi", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "8c979d86291a97bdce20908893ec40b35c7c25433ed5ce70f36b2438a3802c4e",
     "75cf09f4a7e50924cc84134b2650e7c48fb64e64da4a30f9ab36dc1aee346608",
     {"lambda_q": {"tail-trend": 8}}),
    ("charblocks:2", "gdi", ["--mode", "convergence", "--ell", "1"], 0,
     "d071f21a9f1d3d9458fd6458f1e2316bf49d31f6948e4f92704b5d677ea460a1",
     None,
     {"convergence": {"cross": {"tail-trend": 8}, "primary": {"tail-trend": 4}}}),
    ("charblocks:2", "fin-x-fin", ["--mode", "all"], 0,
     "63a97066dcb02e43655c71420411866acc488313060d4737527382183629bd54",
     "6a035cb847b4d6a2a95450cd6ea35e8949d11cc159e47fd8c415c6288271b8d5",
     {"gamma": {"row-rule": 8}, "limit_points": {"infiniteness": 8}}),
    ("charblocks:2", "fin-x-fin", ["--mode", "convergence", "--ell", "1"], 0,
     "5b474cc3317382eb1217686fa66ad64bab9d4dec89b36f30a2bf1909ae0e917a",
     None,
     {"convergence": {"cross": {"row-rule": 8}, "primary": {"row-rule": 4}}}),
    ("charblocks:2", "Z", ["--mode", "limits"], 0,
     "61ae6d0059e17ccd5cf8fbc157e0dcaf6ee7bd4ba4c14c9dbc07001fc7902591",
     "6ed6d44546e894cd392f7bc42212ebd6fe38cd33b61b0ed44b8088b189c899f7",
     {"limit_points": {"infiniteness": 8}}),
    (NEST, "Z", ["--mode", "all"], 0,
     "90bccfef5844e9724c8312105d16a03bd4fc6d44702595d6077621ee294e7ce0",
     "9a0ef30739943fee8a3a17617a1f7380173dd479322b4ea757593148c6e5daf3",
     {"gamma": {"exact-norm": 8, "tail-trend": 4},
      "lambda": {"exact-norm": 8, "tail-trend": 4},
      "limit_points": {"infiniteness": 12}}),
    (NEST, "Z", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "bc252d78b862a9a3071ecd14c4d61655cabe1f6198c40cb096ac14ae71f78982",
     "9a0ef30739943fee8a3a17617a1f7380173dd479322b4ea757593148c6e5daf3",
     {"lambda_q": {"exact-norm": 8, "tail-trend": 4}}),
    (NEST, "Z", ["--mode", "convergence", "--ell", "1/2"], 0,
     "cd53977b5aa0d597d7da8e22b3a70ddf2845469fd86c04300e5ecd7f1f38f745",
     None,
     {"convergence": {"cross": {"exact-norm": 8, "tail-trend": 4}, "primary": {"superset-of-nonmember": 4}}}),
    (NEST, "summable", ["--mode", "all"], 0,
     "d934108d7559a7d0b01cef09c73a66cb4475debce8373ef50e9dbc55994bb14e",
     "e51a6467a17ac5e56ca62b08e64f025d8279b8f727e33066a1149a8cf2f2df1e",
     {"gamma": {"exact-norm": 8, "tail-trend": 4},
      "lambda": {"exact-norm": 8, "tail-trend": 4},
      "limit_points": {"infiniteness": 12}}),
    (NEST, "summable", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "3acd12a462f0d1f8a32daf8339582a9aefc9569342cc539495f96d07fda64a1e",
     "8752d4f9394102db6c7bc010606c1a16146b5d076962c31133b9eeb7cf745f86",
     {"lambda_q": {"exact-norm": 8, "tail-trend": 4}}),
    (NEST, "summable", ["--mode", "convergence", "--ell", "1/2"], 0,
     "33e8e98aee09675f06659b4be7a43a93d28c2385765ab9d868546e110a714b1d",
     None,
     {"convergence": {"cross": {"exact-norm": 8, "tail-trend": 4}, "primary": {"superset-of-nonmember": 4}}}),
    (NEST, "gdi", ["--mode", "all"], 0,
     "8ed06eb5f5e737fb00d79bcbd8be548662cafa478b745b1c6544d9a047708b8e",
     "5ad397c2273146c4942a38bc670d3470ec62d255c58c08aab968b4ea7f31a4f5",
     {"gamma": {"exact-norm": 8, "tail-trend": 4},
      "lambda": {"exact-norm": 8, "tail-trend": 4},
      "limit_points": {"infiniteness": 12}}),
    (NEST, "gdi", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "c8dc0874562fbd159deccf935e32605d0833bf628fcfa7719a92a52c723e2ff0",
     "fc634f88902888721af592167429b8970078f6ecccfb5d02c1e8b9aeddf86df7",
     {"lambda_q": {"exact-norm": 8, "tail-trend": 4}}),
    (NEST, "gdi", ["--mode", "convergence", "--ell", "1/2"], 0,
     "1f480d893fad141a9bbdf3348bd66986fcc32c8c315787fdabf28e9ae5cb994e",
     None,
     {"convergence": {"cross": {"exact-norm": 8, "tail-trend": 4}, "primary": {"superset-of-nonmember": 4}}}),
    (NEST, "fin-x-fin", ["--mode", "all"], 0,
     "df2e22421663624f7ca4dd37d62e325a6882a51d904d952f0176cdcd4b2f6413",
     "0fdcc33807623642c1708a7173b1979ec7a124dc765f7c7b49e81376547039b4",
     {"gamma": {"row-rule": 12}, "limit_points": {"infiniteness": 12}}),
    (NEST, "fin-x-fin", ["--mode", "convergence", "--ell", "1/2"], 0,
     "236bd45b54b8c3e957c89da7bee65cfd39b88a6cb5ce486f08ba1bfa68f7a18b",
     None,
     {"convergence": {"cross": {"row-rule": 12}, "primary": {"row-rule": 4}}}),
    (NEST, "Z", ["--mode", "limits"], 0,
     "b1ae7cab2f50bb941fa45d63999a4d5670d7bff28d7c6beb546cb0a4ae34a584",
     "c5c639f9da0383153bb176c81fb7f636132bbcd5dd0462fc3993d194f3117496",
     {"limit_points": {"infiniteness": 12}}),
    ("harmonic", "Z", ["--mode", "all"], 0,
     "d026d7dd58b4a501e7b0a0450343be6587a0ff57388adb58e2860e89fccf7536",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    ("harmonic", "Z", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "6fd5cfbf6c57130e15e8e18ebe5aee864e3a02046d993ecd44f0adca7b3cdda3",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"lambda_q": {"exact-norm": 68}}),
    ("harmonic", "Z", ["--mode", "convergence", "--ell", "0"], 0,
     "f899e5061a8cd1b612ab5e2fb5f664dc9c44a29eda267a3931b5914a7747788b",
     None,
     {"convergence": {"cross": {"exact-norm": 68}, "primary": {"exact-norm": 4}}}),
    ("harmonic", "summable", ["--mode", "all"], 0,
     "117e602a2a2e7630cb96f3527f69232df27b6c81db2dbcb79fe2ad4076b6cbbd",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    ("harmonic", "summable", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "28323f8c2a4f0f7952924584338bc0ad789809ee5cc311ed64549edebffaf39c",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"lambda_q": {"exact-norm": 68}}),
    ("harmonic", "summable", ["--mode", "convergence", "--ell", "0"], 0,
     "7ec5b02ecc779c0273db4209675ea9735913f7a05d7ae7407d61bbee7b6d1c6c",
     None,
     {"convergence": {"cross": {"exact-norm": 68}, "primary": {"exact-norm": 4}}}),
    ("harmonic", "gdi", ["--mode", "all"], 0,
     "9c752247e2a90810d2ba2be8979426eb9e22f8d77f523d301e9330f47de20e2b",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    ("harmonic", "gdi", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "a5f6ff3cba3fe8070bbc80cfc5ecfdb7d27ae92d4aca883803ba7d42b6f58049",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"lambda_q": {"exact-norm": 68}}),
    ("harmonic", "gdi", ["--mode", "convergence", "--ell", "0"], 0,
     "e11e1ab9d828da636ecd8ad6102797dc14ef028306f2490e82d1c0202fea839f",
     None,
     {"convergence": {"cross": {"exact-norm": 68}, "primary": {"exact-norm": 4}}}),
    ("harmonic", "fin-x-fin", ["--mode", "all"], 0,
     "a19a2bda0218d365acd6bbc4c145e2c909fec371a50d13ff515c69100e687350",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"gamma": {"row-rule": 68}, "limit_points": {"infiniteness": 68}}),
    ("harmonic", "fin-x-fin", ["--mode", "convergence", "--ell", "0"], 0,
     "8d8373bbd4788e13b17bc2e1a7c3cdfcd8f475fa639687f121588cc313689d74",
     None,
     {"convergence": {"cross": {"row-rule": 68}, "primary": {"row-rule": 4}}}),
    ("harmonic", "Z", ["--mode", "limits"], 0,
     "16484d16df9a41dfed615375853460019adc9a1cff68aa8b26db05e66ea1f504",
     "bce9bb9c5b9c3de80fe72fdd4b689e7686d1d2af51d6add1b2216c7ba600e3cc",
     {"limit_points": {"infiniteness": 68}}),
    ("rationals", "Z", ["--mode", "all"], 2,
     "a5ab5174e53b827f17171b0e21adc9fe95db952d47f420c4d43c5f1af4780158",
     "2db92fbc560338c7132009f5f1cc158edcc5fd84e44dc8c93bc089c00be5c5bf",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    ("rationals", "Z", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "cae11f67ba6b4f9ced806a428990876f7b0cb73d94ccb57ecb3f5d061d8716ec",
     "bc2ef851855a50af88fbf72cadd243b6d5c268881ccb09e80891e7546009cf0c",
     {"lambda_q": {"exact-norm": 68}}),
    ("rationals", "Z", ["--mode", "convergence", "--ell", "1/2"], 0,
     "aae65c0a56d640e6e975f59643c68ee2a7d0588f049222dbea5041dbca88e899",
     None,
     {"convergence": {"cross": {"exact-norm": 68}, "primary": {"exact-norm": 4}}}),
    ("rationals", "summable", ["--mode", "all"], 0,
     "9231051345a4dea1201cf522d10a83686ff40993dc1e03189fb8b442e4f221b8",
     "5866e3db7e7b62542f2d083bbbcacdb757b71649db3e1981836342f385e67ee8",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    ("rationals", "summable", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "b4e05be7ff81de36100e1d6f49c6724ac5d952115bbcbf91bd23d2ccf857629b",
     "5866e3db7e7b62542f2d083bbbcacdb757b71649db3e1981836342f385e67ee8",
     {"lambda_q": {"exact-norm": 68}}),
    ("rationals", "summable", ["--mode", "convergence", "--ell", "1/2"], 0,
     "f50861440037acbf6a924612518331ceecb3ef453203b0c6fabbc064ef6f0409",
     None,
     {"convergence": {"cross": {"exact-norm": 68}, "primary": {"exact-norm": 4}}}),
    ("rationals", "gdi", ["--mode", "all"], 2,
     "1a3bcb07683d90fc334ed185ab8c771f833adba8777902dec7f7b806cfcc1833",
     "2db92fbc560338c7132009f5f1cc158edcc5fd84e44dc8c93bc089c00be5c5bf",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    ("rationals", "gdi", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "c470baaa3f8db06dd9a8f86ee496082e0825db29a7e6b3d7a1a90f85b7a51eef",
     "bc2ef851855a50af88fbf72cadd243b6d5c268881ccb09e80891e7546009cf0c",
     {"lambda_q": {"exact-norm": 68}}),
    ("rationals", "gdi", ["--mode", "convergence", "--ell", "1/2"], 0,
     "ece8c72c200fdbee0cf0c634df300e861a6fa39da88e8bec698b980a13a7b9a0",
     None,
     {"convergence": {"cross": {"exact-norm": 68}, "primary": {"exact-norm": 4}}}),
    ("rationals", "fin-x-fin", ["--mode", "all"], 2,
     "66ef168c384e1fefa488cc961a48257817676bc6113628a116d84634acb128fb",
     "0f90c6499861727916578547d49253828c78577dc0411fe24f502ceb6b9b3748",
     {"gamma": {"row-profile": 67, "row-rule": 1},
      "limit_points": {"infiniteness": 68}}),
    ("rationals", "fin-x-fin", ["--mode", "convergence", "--ell", "1/2"], 0,
     "3e435cf3a3197f31c577e08905043a424137b43af86f3997a68f2bdcb14f865b",
     None,
     {"convergence": {"cross": {"row-profile": 67, "row-rule": 1}, "primary": {"row-profile": 3, "row-rule": 1}}}),
    ("rationals", "Z", ["--mode", "limits"], 0,
     "836a50a3b76405e1c44dbb8874b5883d5a246a79c451f9a559fab9aedca109aa",
     "b01b4c01eea05ff0585686d0dc8176a7004cb33ed6c3deea731aca7e0dbf419c",
     {"limit_points": {"infiniteness": 68}}),
    ("cycle:0,1/2,1", "Z", ["--mode", "all"], 0,
     "173c42451b0c7994c706e8244c7ba4edab2938c88f870a0c7ee0367b09e85096",
     "b64a0f477383503503be69df4fd3c1dde71c32e780bcbceec7ffd1b3d61592f7",
     {"gamma": {"exact-norm": 12}, "lambda": {"exact-norm": 12},
      "limit_points": {"infiniteness": 12}}),
    ("cycle:0,1/2,1", "Z", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "a5d0aae574ed1c59e53012d5bd64c3d53ecd037ff0e61d1f56d0a5e4a0f92926",
     "b64a0f477383503503be69df4fd3c1dde71c32e780bcbceec7ffd1b3d61592f7",
     {"lambda_q": {"exact-norm": 12}}),
    ("cycle:0,1/2,1", "Z", ["--mode", "convergence", "--ell", "1"], 0,
     "c98cdca31b1611b9479b229ff8a641aecfd7ff87ebf12e158b9409174d05864d",
     None,
     {"convergence": {"cross": {"exact-norm": 12}, "primary": {"exact-norm": 4}}}),
    ("cycle:0,1/2,1", "summable", ["--mode", "all"], 0,
     "83720588d960687d426afc7ae9fa01bfcf464ed7c611f689565820ca75088842",
     "c895eaef7d4acb7048b4ecf3ba2adadc4e471250343dbc0c80da0c4bb8732545",
     {"gamma": {"exact-norm": 12}, "lambda": {"exact-norm": 12},
      "limit_points": {"infiniteness": 12}}),
    ("cycle:0,1/2,1", "summable", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "74826b7a5f8c946fb4007ac1d80c6e2828eee788cb482f89222aeddc58a95639",
     "c895eaef7d4acb7048b4ecf3ba2adadc4e471250343dbc0c80da0c4bb8732545",
     {"lambda_q": {"exact-norm": 12}}),
    ("cycle:0,1/2,1", "summable", ["--mode", "convergence", "--ell", "1"], 0,
     "e1c74f2301193263d6aecde204e3b60537c0e918e1b096ad3d0763a2fc0b03aa",
     None,
     {"convergence": {"cross": {"exact-norm": 12}, "primary": {"exact-norm": 4}}}),
    ("cycle:0,1/2,1", "gdi", ["--mode", "all"], 0,
     "9a56cdf3eb129b7d8178c8d665d72057bf83ab4cc1ac64f9d08559e97de996bb",
     "b64a0f477383503503be69df4fd3c1dde71c32e780bcbceec7ffd1b3d61592f7",
     {"gamma": {"exact-norm": 12}, "lambda": {"exact-norm": 12},
      "limit_points": {"infiniteness": 12}}),
    ("cycle:0,1/2,1", "gdi", ["--mode", "lambda-q", "--q", "1/4"], 0,
     "72c44115bfd5dc455ce9f8850c53339f02c8bdfc2ee2fee6b3d4fcd7601190b4",
     "b64a0f477383503503be69df4fd3c1dde71c32e780bcbceec7ffd1b3d61592f7",
     {"lambda_q": {"exact-norm": 12}}),
    ("cycle:0,1/2,1", "gdi", ["--mode", "convergence", "--ell", "1"], 0,
     "0b38fd12d379c15f1a9a185141c7cda02ae7faf3a62fcfdb34bc8fa58f788ac1",
     None,
     {"convergence": {"cross": {"exact-norm": 12}, "primary": {"exact-norm": 4}}}),
    ("cycle:0,1/2,1", "fin-x-fin", ["--mode", "all"], 0,
     "03ecd42e44b047484b05e6fd7de243bf8d4d139bf53d1b9b0bb0a73847f9eb27",
     "c895eaef7d4acb7048b4ecf3ba2adadc4e471250343dbc0c80da0c4bb8732545",
     {"gamma": {"row-rule": 12}, "limit_points": {"infiniteness": 12}}),
    ("cycle:0,1/2,1", "fin-x-fin", ["--mode", "convergence", "--ell", "1"], 0,
     "56a8de27f87185dd05577e9fbcc8e5638aa257929d45ddb3b423d0268ca2c0dc",
     None,
     {"convergence": {"cross": {"row-rule": 12}, "primary": {"row-rule": 4}}}),
    ("cycle:0,1/2,1", "Z", ["--mode", "limits"], 0,
     "5e6d91c16ba32d517dc43cab4952de288500d8ea31e84d3e811804cabae1a145",
     "c5c639f9da0383153bb176c81fb7f636132bbcd5dd0462fc3993d194f3117496",
     {"limit_points": {"infiniteness": 12}}),
    # harmonic centres past 2^20 and 2^52, where the ball's cross-products
    # are largest
    ("harmonic", "Z", ["--mode", "convergence", "--ell", "1/1048833"], 0,
     "1e7439f5ae68b38e5e6fd1483d8f3d9abf2c5f1156d28b20f1e7d42114c6b521",
     None,
     {"convergence": {"cross": {"exact-norm": 72}, "primary": {"exact-norm": 4}}}),
    ("harmonic", "Z", ["--mode", "convergence",
                       "--ell", "2/4503599627372953"], 0,
     "9cb12711519db3a5f3d6d37d2728bba1c7827f2380e4d70925c1f50a328f1039",
     None,
     {"convergence": {"cross": {"exact-norm": 72}, "primary": {"exact-norm": 4}}}),
    # rationals centres past 2^20 and 2^57: the Farey interval's ends and
    # its ball test pass int64
    ("rationals", "gdi", ["--mode", "convergence", "--ell", "1/1049601"], 0,
     "36f869a0d9c6bfc9fdcebc4f698cfd57a3231ce3853b7f396350fcb0c3be3b97",
     None,
     {"convergence": {"cross": {"exact-norm": 72}, "primary": {"exact-norm": 4}}}),
    ("rationals", "gdi", ["--mode", "convergence",
                          "--ell", "1/144115188075858873"], 0,
     "e059ef5c763226704e10ee1f5f33acf406066136a20f94a900273a89b5fcff0c",
     None,
     {"convergence": {"cross": {"exact-norm": 72}, "primary": {"exact-norm": 4}}}),
])
def test_analyze_report_pinned(tmp_path, seq, ideal, mode, code, json_digest,
                               csv_digest, routes):
    out = tmp_path / "a"
    assert main(["analyze", "--seq", seq, "--ideal", ideal, *mode, *SHAPE,
                 "--out", str(out)]) == code

    def digest(suffix):
        path = Path(f"{out}{suffix}")
        return (hashlib.sha256(path.read_bytes()).hexdigest()
                if path.exists() else None)

    assert digest(".json") == json_digest
    assert digest(".csv") == csv_digest
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    assert meta.get("routes") == routes


def test_sample_of_rationals_sigma_maps_pinned(tmp_path):
    # each map's balls are preimages of rationals balls, read through its
    # table
    out = tmp_path / "s"
    assert main(["sample", "--seq", "rationals", "--ideal", "Z",
                 "--kind", "sigma", "--maps", "3", "--length", "512", *SHAPE,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(Path(f"{out}.json").read_bytes()).hexdigest() == \
        "03ded7433b79c6028fa8d762ce3704197192a2391b185266e8e59bb42b32128e"


# --- witness verify reports ----------------------------------------------------

@pytest.mark.parametrize("ideal, json_digest", [
    ("fin", "e081fe7063043cccba7ce2baf54c6d56ba87e94808beec3a2cf6f04742aee484"),
    ("Z", "bf424246af30ce65c3af11ef1464dd41f664ee8d90a13dda8f9be87889488872"),
    ("summable",
     "b3c8e11a63de42a9e25e8241e323661688db92ad20a14b280738c72152265b03"),
    ("gdi", "25134e2167c452674a533771e36eea6e689cf37d55dfaa61e2645a79112b9714"),
    ("fin-x-fin",
     "0b4a92dac57d11dcd8fc87f6067560a7d8fa7d516ddf5bc0fec45233941cfda1"),
])
def test_witness_verify_report_pinned(tmp_path, ideal, json_digest):
    # each sample's estimate is its best corrected tail past cut 0 and the
    # default cuts
    out = tmp_path / "verify"
    assert main(["witness", "verify", "--ideal", ideal, "--q", "1/2",
                 "--horizon", "4096", "--trials", "12", "--seed", "3",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(Path(f"{out}.json").read_bytes()).hexdigest() == \
        json_digest


# --- one norm read per letter subset ------------------------------------------

def _count_norm_reads(monkeypatch):
    """The norm reads of a report: each exact_norm call not made from
    inside another norm read, by its set, and each tail reading, by the
    prefix it reads."""
    seen: list[tuple[str, object]] = []
    depth = [0]

    def counted(kind, fn):
        def read(*args, **kwargs):
            s = args[1]
            if depth[0] == 0:
                seen.append((kind, s.dumps() if kind == "exact"
                             else s.tobytes()))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return read

    monkeypatch.setattr(sm.Lscsm, "exact_norm",
                        counted("exact", sm.Lscsm.exact_norm))
    monkeypatch.setattr(sm, "norm_estimate",
                        counted("tail", sm.norm_estimate))
    return seen


@pytest.mark.parametrize("ideal", ["Z", "summable", "gdi"])
def test_level_set_report_reads_each_letter_subset_once(monkeypatch, ideal):
    seen = _count_norm_reads(monkeypatch)
    # the balls of radius 1/2 and 1/4 around 0 and around 1/8 hold the same
    # two letters, whose union has no closed form
    x = zoo.alphabet_from_json({**_NEST_BODY, "letters": ["0", "1/8", "1"]})
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    handle = builtin(ideal)
    for run in (lambda: lambda_q_estimate(x, handle, F(1, 4), params),
                lambda: lambda_estimate(x, handle, params)):
        del seen[:]
        report = run()
        assert sum(len(c.radii) for c in report.candidates) == 12
        assert report.route_counts() == {"exact-norm": 6, "tail-trend": 6}
        repeated = [read for read, n in Counter(seen).items() if n > 1]
        assert seen and not repeated
