"""Pinned digests of the farthest-point front samplers.

The replay golden campaign only reaches a short simplex completion, so the
greedy farthest-point loop is pinned here on its own: the thinned front
samples of DTLZ5, DTLZ6 and DTLZ7, and a simplex set that needs 30
completion picks, each also at the default ``pf_size`` of 10000, where the
pools are largest.  The digests were recorded from an earlier version of
the package, which recomputed every distance on every pick; a refactor or
speed-up of the samplers must leave them unchanged.

Every registered problem is also pinned at m in {2, 3, 5}: its objectives
on one seeded batch and a 300-point front sample.  The golden campaign
holds no inverted problem, so these are the byte-for-byte check of the
scaled and inverted variants; they were recorded at commit 35803c3,
before the variants stopped being one subclass per base problem.
"""
import hashlib

import numpy as np
import pytest

from prefnorm.core import make_engine
from prefnorm.problems import get_problem, problem_names
from prefnorm.weights import uniform_simplex_set


def _digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=float)
                          .tobytes()).hexdigest()


@pytest.mark.parametrize("name,m,digest", [
    ("dtlz5", 3,
     "0d219ac230055e7b2255c43eb62a1c8acc52a4f16f3b48dc8059056a8b375ea5"),
    ("dtlz6", 4,
     "147bbcbfe38ac399a0d14bcbd95d6cdf8fd38419a4e215b3be714877a88586eb"),
    ("dtlz7", 3,
     "be790aa7e829b8a4c0b649c86da7bd3938a6e0b0189132e993573ea17ee119b1"),
])
def test_front_sample_digest(name, m, digest):
    sample = get_problem(name, m).sample_pf(200, make_engine(1))
    assert sample.shape == (200, m)
    assert _digest(sample) == digest


def test_simplex_completion_digest():
    # 70 lattice points of 5 objectives, completed by 30 greedy picks
    weights = uniform_simplex_set(5, 100, make_engine(1))
    assert weights.shape == (100, 5)
    assert _digest(weights) == (
        "d9f3d5b6cf60d725f4e361b79ad481f9a77e51ca8b0a5f321fb1aa33786c1fd5")


@pytest.mark.parametrize("name,m,digest", [
    ("dtlz5", 3,
     "c16fce0cabdc0b71fbeab31144b922f70eb859440d5519503ec67b4eb08fc590"),
    ("dtlz7", 3,
     "ad2c916d3e7ab253f6d266db5157d90a26038c7f01a33bd26d74d83e7c4c3b4b"),
])
def test_default_size_front_sample_digest(name, m, digest):
    # 10000 picks from a 40000-row pool
    sample = get_problem(name, m).sample_pf(10000, make_engine(1))
    assert sample.shape == (10000, m)
    assert _digest(sample) == digest


def test_default_size_simplex_digest():
    # 8855 lattice points of 5 objectives, completed by 1145 greedy picks
    weights = uniform_simplex_set(5, 10000, make_engine(1))
    assert weights.shape == (10000, 5)
    assert _digest(weights) == (
        "4c5e9562522b6ddfb28c31d50883ee509ccf8ca3139ad0548fddc314fab02858")


# (name, m): (evaluate_batch on make_engine(2).random((16, n)),
#             sample_pf(300, make_engine(1)))
PROBLEM_DIGESTS = {
    ("dtlz1", 2): (
        "38bfb8d679ae9b4f77132065b1a40a91933244ce47489529b870dd670a54efa7",
        "99f00864a94eabb92d347a8927cb82835d5f987873f97aba7fb5eb0caa722160"),
    ("dtlz1", 3): (
        "763d9f676dedd63f9116bb5ac161b4b83a4444e386fed6e38b0c688a98eec2f4",
        "7dc22f74335cb5969291516c55980ab36b7e99572c9e723004cc0313a3a6c96a"),
    ("dtlz1", 5): (
        "e62635dbac224fe085be95d12b2326f76268fc80e66b46869c44d62fa7d7c58b",
        "92437cf739dce2e4e65c1061a5ea67423ad346f8dc6e01e4c694457555376b4f"),
    ("dtlz2", 2): (
        "12109ffa2fbc2a9ada47bec69ebf4c6aa96e46ded537baf6cd343ee113cb245c",
        "c53c5bcc973671835c4b8b4e5de42999685706461c52904c03718689a7aeb550"),
    ("dtlz2", 3): (
        "9770686a36d1be98ee8de6187371e3d02d475e6a8656716531d1359de33f7894",
        "c3315a7720942acfccc5f1c849e716e66e1d8ad3badc7c033db48fe8dc7d261f"),
    ("dtlz2", 5): (
        "f02183001653247e3298ab0d66ef0a3ed5b4dffea879bbec65d3017e2197a740",
        "bedf218080277d77d116de73d491ff899aeef34b90af67f89a214401dd42a1d5"),
    ("dtlz3", 2): (
        "8ffba6257cdd3e74371c2c1e9d8237d952a358a9e06df981be21d085b6eb3edc",
        "c53c5bcc973671835c4b8b4e5de42999685706461c52904c03718689a7aeb550"),
    ("dtlz3", 3): (
        "305886b0b7516d064a3ad5bcf88f43af72b2edc48e6bc8b82d04f714c0c1f46c",
        "c3315a7720942acfccc5f1c849e716e66e1d8ad3badc7c033db48fe8dc7d261f"),
    ("dtlz3", 5): (
        "bd27370fc4ae3af10b70c48f749ae46ee40c754a9dc581eb1a1dc82f584d35f0",
        "bedf218080277d77d116de73d491ff899aeef34b90af67f89a214401dd42a1d5"),
    ("dtlz4", 2): (
        "b648afa312a3fa9bae1b501a0d377d4598e39acdba199238dcdf03e6e22215bd",
        "c53c5bcc973671835c4b8b4e5de42999685706461c52904c03718689a7aeb550"),
    ("dtlz4", 3): (
        "2ba587b6fb8a318499bcd84932b2846aa33e60d586ee03b733f8203931815e70",
        "c3315a7720942acfccc5f1c849e716e66e1d8ad3badc7c033db48fe8dc7d261f"),
    ("dtlz4", 5): (
        "a382d4380ae54f27c798d3c9a8b13b1756dd49ab3ef98b2261e11d4264c67b73",
        "bedf218080277d77d116de73d491ff899aeef34b90af67f89a214401dd42a1d5"),
    ("dtlz5", 2): (
        "12109ffa2fbc2a9ada47bec69ebf4c6aa96e46ded537baf6cd343ee113cb245c",
        "3a6285ae864ad9ec677d844e7596ae9aa06c50c93b6dfcc41370de69492c5b99"),
    ("dtlz5", 3): (
        "e9017729f5183dd0715d018278ae52fadafdb34b4346a2e16f1c49e67c8c5b4d",
        "51129a4def3f07f34040733736ef7a639d281c69554f21ae483c3c45fcfe6891"),
    ("dtlz5", 5): (
        "ce20657efe9634db587da7b2fb76aa2376a1ac75a08c2fc5bc62cb8dd694a8c1",
        "f7feebee15a351609485db54f5bd2db4d46e2fde968d8e58b964bbc45d80555e"),
    ("dtlz6", 2): (
        "d1cb37d4a937eb5559a465ffd027e497b0a24bf3bf6fbfc63921d0cc1e93e97a",
        "3a6285ae864ad9ec677d844e7596ae9aa06c50c93b6dfcc41370de69492c5b99"),
    ("dtlz6", 3): (
        "da997578fa07fba55ab1cc33e52cacc83ae51548cad884ba2a02486a61f51bc6",
        "51129a4def3f07f34040733736ef7a639d281c69554f21ae483c3c45fcfe6891"),
    ("dtlz6", 5): (
        "33bb1f13fd74588d33add88b574eab1214aa75f58b859e2f2ed5f18fb0899f12",
        "f7feebee15a351609485db54f5bd2db4d46e2fde968d8e58b964bbc45d80555e"),
    ("dtlz7", 2): (
        "32e810a58c6af84d59a4f78e91f354439553a61f46e3fb1bc032a01fad416510",
        "4aca3d5a369b539564a11b43058dfc28e565112a27592a21d09bf19f6f00f765"),
    ("dtlz7", 3): (
        "da4a47ca6015169f3eab8b978ed373212c297ce010a93dcb8c9ec6af2e16e06b",
        "33892f475cae7e829b0ed914309a160d8e270d3c81c562aef11bf87cc4d16141"),
    ("dtlz7", 5): (
        "cc4b0246885618c225eb9044e3c197ad2604051a78f78850807b3d9409b92a6b",
        "2f375d21cd8205782f5188c34caac3ecf6dcc95899764b0f478f3ecbc6324c40"),
    ("sdtlz1", 2): (
        "971545c056c8b410b5797bd462bb4aa55e0a31895d759dd60da754807ed76cee",
        "3da0c7d0416060f10dd28ca7eaeb481aea9ac8df0f7ebeb590a9c0629139217a"),
    ("sdtlz1", 3): (
        "350aaca29d37ccef4e8f144d5b98e82cafdba301c38db1d70f32256690721b1b",
        "d4b105ccdadcdde9d396999e1cb324f6161a6787867fa28696944ac5b60f2622"),
    ("sdtlz1", 5): (
        "fb5956b937914e845b9d5fe85de0704ccea76a804e40ad2650c4e2be0deeb31b",
        "6b7b4171aba97ec7de7cbee39a860644f9d039281d79090ddfeb8e7c7c9be686"),
    ("sdtlz2", 2): (
        "d29c1398dc965e22a09c6ba7d8e466301eb845f88a6d58fe6951ef2f97d0c402",
        "164933ccb35ad47a2c8b11c4fb5ea877d20e7cbd23e4df478d3183a7a35f2f64"),
    ("sdtlz2", 3): (
        "4ce4e91fa89ea60be97c650d00f9f045327b68e90088cf5bb6b40fa14a34f5f0",
        "55a73486f6b577e342e11c5d013dbd60fa8837523744d71569e482874320acbd"),
    ("sdtlz2", 5): (
        "eba35c32c4afc93b48b78c3c0e8ac7344e0927419fb99fd9b01efe0971e06756",
        "dbf995afc7df6007da22b535738a554dc639290f70eb545876044a9cdbb11634"),
    ("sdtlz3", 2): (
        "1592d46046a976699fb85bfc13c14d3563c174c8fed236c60bdc11132c741ef4",
        "164933ccb35ad47a2c8b11c4fb5ea877d20e7cbd23e4df478d3183a7a35f2f64"),
    ("sdtlz3", 3): (
        "b9b790d6091670cab4c8b79fe1132a329f0a5c03de282db427a60b89c94d1858",
        "55a73486f6b577e342e11c5d013dbd60fa8837523744d71569e482874320acbd"),
    ("sdtlz3", 5): (
        "eea9330118b58b2752e84f8ce0e3f4260c2052e9726dc133c7bcedc439f8f72f",
        "dbf995afc7df6007da22b535738a554dc639290f70eb545876044a9cdbb11634"),
    ("sdtlz4", 2): (
        "da12d8b55188bd16b02c982c5cd862854a61bf29a5c6bea98b75ddec047f13b9",
        "164933ccb35ad47a2c8b11c4fb5ea877d20e7cbd23e4df478d3183a7a35f2f64"),
    ("sdtlz4", 3): (
        "cca584aef16aa6b9cf5c7d31c375589345b22a9fee78ab1dcdcce576b9f8a919",
        "55a73486f6b577e342e11c5d013dbd60fa8837523744d71569e482874320acbd"),
    ("sdtlz4", 5): (
        "311fd38c152d5c680a4dae2014d1f1113648f2696d9be8cc439e28b1fe8514cf",
        "dbf995afc7df6007da22b535738a554dc639290f70eb545876044a9cdbb11634"),
    ("idtlz1", 2): (
        "3ed543e3f701599c0d99bea58fe797e800e4eb2539befb785ad8a1d7ceffb518",
        "5635aa7afbe94a2d353b54609fa3b080816ed18b64615fb6b6cb87e7a498c324"),
    ("idtlz1", 3): (
        "bfd00d80b9925c7d2c938fbee579298fe43565a7d6994c0bd25fe360a31f4c60",
        "64a114126d8bc7b58bfa087c5139c62cd3525b0d46d2b49ae51a638827b3d57e"),
    ("idtlz1", 5): (
        "98a5987bab3848e1051e54f564d33c796c3c1923679746f61b34bfa6423f7636",
        "7e7eb4736569cdf9e13faae3309939ebab038c6c4d1b0d1c92e6d7cc6f5630d1"),
    ("idtlz2", 2): (
        "fbbcb1f8417993f5500077d1914058a446c68add2ab8bf491f2b5e730a251004",
        "6be196e93aef9260c81757b7d511352ec137f329ce02249d1f113185751ad815"),
    ("idtlz2", 3): (
        "454e0cb8a8d11687637cef3efd346b218688479b0a7d8e7e41264f7cf127d976",
        "2a3c8244be9c3af0fbd49a61fc84859196f2e962a464d55bf4a1e59e0759e62d"),
    ("idtlz2", 5): (
        "b90a55a56a1f35e4f35c72e60b80d855f6fa261ebcccc3df765892297c1a4ecf",
        "9a562f92eadb91c4520ec6667810564c992412e72dca70a692dcef15e9c02537"),
    ("idtlz3", 2): (
        "fd88cf07bbc9b30520d66470c2e69e0489ecdf58110071da10e6069aaf1bab78",
        "6be196e93aef9260c81757b7d511352ec137f329ce02249d1f113185751ad815"),
    ("idtlz3", 3): (
        "682a249d7430aeb96512ddc4d90543a00d055418f0a33043174f6bf23323c085",
        "2a3c8244be9c3af0fbd49a61fc84859196f2e962a464d55bf4a1e59e0759e62d"),
    ("idtlz3", 5): (
        "9883486ddabe423da66e663140f7b2d7a1c2806f6ee8a224c56f3e271d519e7d",
        "9a562f92eadb91c4520ec6667810564c992412e72dca70a692dcef15e9c02537"),
    ("idtlz4", 2): (
        "5fb3f84c6af79e627010a0b1092dc498ec77dcdb0beac2a557fd923d1e1fdde2",
        "6be196e93aef9260c81757b7d511352ec137f329ce02249d1f113185751ad815"),
    ("idtlz4", 3): (
        "81cfcbc1220e066b2e5d1c3b22d1b605c3022524da9e6f83ca458a4f43a651b8",
        "2a3c8244be9c3af0fbd49a61fc84859196f2e962a464d55bf4a1e59e0759e62d"),
    ("idtlz4", 5): (
        "4fd1e63bacae6f41ca437cead8ec00d0544cafebde2220feabaf88e59ea91a63",
        "9a562f92eadb91c4520ec6667810564c992412e72dca70a692dcef15e9c02537"),
}


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("name", problem_names())
def test_problem_digest(name, m):
    objs_digest, sample_digest = PROBLEM_DIGESTS[(name, m)]
    problem = get_problem(name, m)
    objs = problem.evaluate_batch(make_engine(2).random((16, problem.n)))
    assert objs.shape == (16, m)
    assert _digest(objs) == objs_digest
    sample = problem.sample_pf(300, make_engine(1))
    assert sample.shape == (300, m)
    assert _digest(sample) == sample_digest
