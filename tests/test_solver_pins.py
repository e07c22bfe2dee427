"""Output pins for every alternating solver.

Each case fits one solver configuration on small blobs and reduces the
result to a fingerprint: label digests, iteration counts and
per-iteration label moves are pinned exactly; view weights, objective
histories, embedding magnitudes and the anchor model's ``objective_`` /
``batch_cost_`` are pinned at ``rtol=1e-10``, so the pins survive a
different BLAS build while still catching any change to the arithmetic
of the F/R/Y/w alternation.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro import AnchorMVSC, SparseMVSC, UnifiedMVSC
from repro.core.incomplete import IncompleteMVSC
from repro.datasets import make_multiview_blobs
from repro.exceptions import ConvergenceWarning
from repro.observability import Trace, TraceRecorder, use_trace

RTOL = 1e-10


def _dataset(seed: int):
    return make_multiview_blobs(
        120,
        3,
        view_dims=(8, 12, 6),
        view_noise=(0.3, 0.6, 1.0),
        separation=3.0,
        random_state=seed,
    )


def _digest(labels) -> str:
    data = np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _floats(values) -> list:
    return [float(x) for x in np.ravel(values)]


def _embedding(emb) -> list:
    """Column sums and row-index moments of ``|embedding|``."""
    mag = np.abs(emb)
    rows = np.arange(1, mag.shape[0] + 1, dtype=np.float64)
    return _floats(mag.sum(axis=0)) + _floats(rows @ mag)


def _events(events) -> dict:
    return {
        "n_iter": len(events),
        "label_moves": [e.label_moves for e in events],
        "weights": [_floats(e.view_weights) for e in events],
    }


def _umsc(seed: int, **params) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        model = UnifiedMVSC(3, random_state=0, **params)
        res = model.fit(_dataset(seed).views)
    return {
        "labels": _digest(res.labels),
        **_events(res.diagnostics.events),
        "objective": _floats(res.objective_history),
        "embedding": _embedding(res.embedding),
    }


def _recorded(model, views) -> tuple:
    recorder = TraceRecorder()
    model.callbacks = (recorder,)
    labels = model.fit_predict(views)
    return labels, recorder.events


def _sparse(seed: int, weighting: str) -> dict:
    model = SparseMVSC(3, weighting=weighting, random_state=0)
    labels, events = _recorded(model, _dataset(seed).views)
    return {"labels": _digest(labels), **_events(events)}


def _anchor(seed: int, weighting: str) -> dict:
    model = AnchorMVSC(3, n_anchors=40, weighting=weighting, random_state=0)
    labels, events = _recorded(model, _dataset(seed).views)
    return {
        "labels": _digest(labels),
        **_events(events),
        "objective": float(model.objective_),
        "batch_cost": float(model.batch_cost_),
    }


def _anchor_state(model, labels) -> dict:
    return {
        "labels": _digest(labels),
        "n_iter": int(model.n_iter_),
        "weights": _floats(model.view_weights_),
        "objective": float(model.objective_),
        "batch_cost": float(model.batch_cost_),
    }


def _anchor_stream() -> dict:
    views = _dataset(5).views
    model = AnchorMVSC(3, n_anchors=20, random_state=0)
    trail = [_anchor_state(model, model.partial_fit([v[:60] for v in views]))]
    for start in range(60, 120, 12):
        batch = [v[start:start + 12] for v in views]
        trail.append(_anchor_state(model, model.partial_fit(batch)))
    trail.append(_anchor_state(model, model.partial_refit()))
    trail.append(_anchor_state(model, model.refit()))
    return {"trail": trail}


def _incomplete() -> dict:
    ds = _dataset(3)
    masks = [np.ones(120, dtype=bool) for _ in ds.views]
    masks[0][:20] = False
    masks[2][40:70] = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        res = IncompleteMVSC(3, random_state=0).fit(ds.views, masks)
    return {
        "labels": _digest(res.labels),
        **_events(res.diagnostics.events),
        "objective": _floats(res.objective_history),
        "embedding": _embedding(res.embedding),
    }


CASES = {
    "umsc_lam1_a": lambda: _umsc(1),
    "umsc_lam1_b": lambda: _umsc(2),
    "umsc_lam0": lambda: _umsc(1, lam=0.0),
    "umsc_parameter_free_no_consensus": lambda: _umsc(
        2, weighting="parameter_free", consensus=0.0
    ),
    "umsc_uniform": lambda: _umsc(1, weighting="uniform"),
    "sparse_exponential": lambda: _sparse(1, "exponential"),
    "sparse_parameter_free": lambda: _sparse(2, "parameter_free"),
    "anchor_exponential": lambda: _anchor(1, "exponential"),
    "anchor_parameter_free": lambda: _anchor(2, "parameter_free"),
    "anchor_stream": _anchor_stream,
    "incomplete": _incomplete,
}


def _assert_matches(actual, expected, path: str) -> None:
    if isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        np.testing.assert_allclose(actual, expected, rtol=RTOL, err_msg=path)
    else:
        # Digests, iteration counts and label moves: exact.
        assert actual == expected, path


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_output_pinned(name):
    _assert_matches(CASES[name](), PINS[name], name)


@pytest.mark.parametrize(
    "make",
    [
        lambda: UnifiedMVSC(3, max_iter=5, random_state=0),
        lambda: SparseMVSC(3, random_state=0),
        lambda: AnchorMVSC(3, n_anchors=40, random_state=0),
    ],
    ids=["umsc", "sparse", "anchor"],
)
def test_traced_fit_matches_untraced(make):
    views = _dataset(1).views
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        plain = make().fit_predict(views)
        with use_trace(Trace("pin")):
            traced = make().fit_predict(views)
    np.testing.assert_array_equal(plain, traced)


#: Captured before the three solver loops were merged into one driver.
PINS: dict = {'anchor_exponential': {'batch_cost': 1.6184526449856282,
                        'label_moves': [None, 5, 12, 6, 1, 0, 0, 0],
                        'labels': '602bb9d9f6279041',
                        'n_iter': 8,
                        'objective': 0.3990776048713824,
                        'weights': [[0.3961286753008414,
                                     0.3372935910333173,
                                     0.26657773366584137],
                                    [0.5200175767027275,
                                     0.2807657833000862,
                                     0.1992166399971863],
                                    [0.667598542959138,
                                     0.18361778252818378,
                                     0.14878367451267827],
                                    [0.7084377211218976,
                                     0.15587859473991816,
                                     0.13568368413818419],
                                    [0.7116124278818745,
                                     0.15363555182301847,
                                     0.13475202029510702],
                                    [0.7118034624306634,
                                     0.15349786592877637,
                                     0.1346986716405602],
                                    [0.7118147852680273,
                                     0.15348964253779773,
                                     0.1346955721941748],
                                    [0.7118154567722946,
                                     0.15348915345477782,
                                     0.13469538977292747]]},
 'anchor_parameter_free': {'batch_cost': 1.4984949591059271,
                           'label_moves': [None, 4, 1, 1, 1, 0, 0, 0, 0, 0],
                           'labels': 'aaf714c8816b0186',
                           'n_iter': 10,
                           'objective': 0.8608788757208646,
                           'weights': [[0.5986523845878696,
                                        0.5549687528867169,
                                        0.4568739964784781],
                                       [0.6268368855698851,
                                        0.5670595931114418,
                                        0.4377366896196021],
                                       [0.6347192412067156,
                                        0.5689331249567534,
                                        0.43313026715238556],
                                       [0.6369414898974695,
                                        0.5689359272640202,
                                        0.43211468301300554],
                                       [0.6376094489645224,
                                        0.5687875514539086,
                                        0.4318943237074075],
                                       [0.6378230840553125,
                                        0.568701496329198,
                                        0.43184605877837695],
                                       [0.637894785884753,
                                        0.5686632787231628,
                                        0.431835242642743],
                                       [0.637919669779338,
                                        0.568647866112893,
                                        0.43183272864322214],
                                       [0.6379284943702572,
                                        0.5686419218264908,
                                        0.4318321130969501],
                                       [0.6379316658720772,
                                        0.5686396812352278,
                                        0.4318319520027347]]},
 'anchor_stream': {'trail': [{'batch_cost': 1.8307511171377489,
                              'labels': 'd7af831675c87fc7',
                              'n_iter': 10,
                              'objective': 0.8858728618807966,
                              'weights': [0.23022035490077442,
                                          0.5654562304470132,
                                          0.20432341465221238]},
                             {'batch_cost': 3.903660627063271,
                              'labels': 'f21cbffbfff64726',
                              'n_iter': 2,
                              'objective': 0.9479821071442188,
                              'weights': [0.24050177178979196,
                                          0.5405704200209196,
                                          0.21892780818928848]},
                             {'batch_cost': 3.8417106063966187,
                              'labels': '34db4934aa49f63c',
                              'n_iter': 2,
                              'objective': 1.0221238287602679,
                              'weights': [0.251807607884948,
                                          0.5191013295304092,
                                          0.2290910625846428]},
                             {'batch_cost': 4.2090682794680205,
                              'labels': 'f831203b061756e6',
                              'n_iter': 2,
                              'objective': 1.0427306102854095,
                              'weights': [0.2442294803353872,
                                          0.5218969567045961,
                                          0.23387356296001666]},
                             {'batch_cost': 3.843191432236679,
                              'labels': '6e25c68dc0a00820',
                              'n_iter': 2,
                              'objective': 1.0844014942984659,
                              'weights': [0.24727189886624554,
                                          0.5138748543801955,
                                          0.23885324675355907]},
                             {'batch_cost': 3.8931232375897324,
                              'labels': 'f4235bb50fb61350',
                              'n_iter': 2,
                              'objective': 1.1047410647482423,
                              'weights': [0.2507302317412615,
                                          0.5225107769713849,
                                          0.2267589912873534]},
                             {'batch_cost': 3.8931232375897324,
                              'labels': 'f489eeb5ff3cb9d9',
                              'n_iter': 5,
                              'objective': 1.1003583668488854,
                              'weights': [0.25037257390180184,
                                          0.5231018762376375,
                                          0.22652554986056056]},
                             {'batch_cost': 2.481795676632784,
                              'labels': '88f9df465079cce1',
                              'n_iter': 10,
                              'objective': 0.9699348349208503,
                              'weights': [0.24020734688309067,
                                          0.5458634741642343,
                                          0.21392917895267508]}]},
 'incomplete': {'embedding': [10.947065972391897,
                              9.604021541378813,
                              9.82402440170052,
                              662.7054945194839,
                              582.6584598561357,
                              603.6024228133965],
                'label_moves': [0, 0],
                'labels': '3755f5052adce8c5',
                'n_iter': 2,
                'objective': [1.1267889753479094, 1.126788964461862],
                'weights': [[1.0], [1.0]]},
 'sparse_exponential': {'label_moves': [None, 10, 6, 8, 3, 0, 0, 0],
                        'labels': 'e7dab6d770404f73',
                        'n_iter': 8,
                        'weights': [[0.42468518109584513,
                                     0.3085119115687868,
                                     0.266802907335368],
                                    [0.5805515757597327,
                                     0.23653634686333547,
                                     0.18291207737693188],
                                    [0.6991356896599747,
                                     0.16244543704892572,
                                     0.13841887329109948],
                                    [0.7234411826089635,
                                     0.14537334959831302,
                                     0.13118546779272341],
                                    [0.7256869003285564,
                                     0.14365272763399736,
                                     0.13066037203744635],
                                    [0.7258695085669902,
                                     0.14350717955440753,
                                     0.1306233118786023],
                                    [0.7258843261286365,
                                     0.1434951893979716,
                                     0.13062048447339203],
                                    [0.7258855328694169,
                                     0.14349420747354819,
                                     0.13062025965703492]]},
 'sparse_parameter_free': {'label_moves': [None, 7, 0, 0, 1, 1, 0, 0, 0, 0],
                           'labels': 'f06d4c5a7618bbf6',
                           'n_iter': 10,
                           'weights': [[0.5642303556168927,
                                        0.5091800762458831,
                                        0.43245373784709684],
                                       [0.5963661314516561,
                                        0.5164826739928026,
                                        0.4138918626540422],
                                       [0.6079145659249989,
                                        0.5167219902902683,
                                        0.40877872269223003],
                                       [0.6122081689055292,
                                        0.5158510657822288,
                                        0.40747647495845857],
                                       [0.6139251583363584,
                                        0.5151950495453202,
                                        0.4071505882921095],
                                       [0.614653593687955,
                                        0.5148283949548313,
                                        0.40706846791975365],
                                       [0.6149748274779574,
                                        0.5146429953151327,
                                        0.4070473147500535],
                                       [0.6151197735558112,
                                        0.5145532293229682,
                                        0.40704164802167636],
                                       [0.6151860228887527,
                                        0.5145106617546822,
                                        0.4070400336368392],
                                       [0.6152165162898804,
                                        0.5144906859575915,
                                        0.40703953296335776]]},
 'umsc_lam0': {'embedding': [10.901710688843252,
                             9.306388983412347,
                             9.489501666322997,
                             655.4738104651619,
                             555.7366716201169,
                             582.8236058364784],
               'label_moves': [0, 78, 9, 0, 0],
               'labels': '077c3eef26d1dee2',
               'n_iter': 5,
               'objective': [-1.2583353605170036,
                             -2.494582753712688,
                             -2.660138570469732,
                             -2.660656801185521,
                             -2.6606590047595207],
               'weights': [[0.4720101803493786,
                            0.28063719937182197,
                            0.24735262027879956],
                           [0.7909364389081108,
                            0.11347256881629515,
                            0.09559099227559396],
                           [0.8555033369988198,
                            0.07589794963081954,
                            0.06859871337036054],
                           [0.8560518047497722,
                            0.07551540368806577,
                            0.06843279156216218],
                           [0.8560549348870664,
                            0.07551300887861914,
                            0.06843205623431459]]},
 'umsc_lam1_a': {'embedding': [10.928422496896216,
                               9.201098532337983,
                               9.638464809610404,
                               658.4469174431658,
                               558.9175025759953,
                               593.2472158175202],
                 'label_moves': [0, 71, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                 'labels': 'b46c6de2689caf60',
                 'n_iter': 12,
                 'objective': [-1.1819669664180696,
                               -1.8329422036880954,
                               -2.043065404329743,
                               -2.1491379130972215,
                               -2.151958182787465,
                               -2.152147974750331,
                               -2.1521721293838945,
                               -2.15218669674942,
                               -2.152195574765306,
                               -2.152201037322672,
                               -2.1522044274973733,
                               -2.1522065478623933],
                 'weights': [[0.5105184527774553,
                              0.26675516230762375,
                              0.22272638491492078],
                             [0.674617465055182,
                              0.17774459156130137,
                              0.14763794338351646],
                             [0.7470448967218751,
                              0.13628697835548784,
                              0.1166681249226371],
                             [0.7744249372730162,
                              0.1208180115448603,
                              0.10475705118212346],
                             [0.7766470519963785,
                              0.11953782117698455,
                              0.10381512682663672],
                             [0.7768022628220234,
                              0.11944822283004224,
                              0.10374951434793438],
                             [0.7768220718455493,
                              0.11943676509303003,
                              0.10374116306142064],
                             [0.7768340246713927,
                              0.11942984316002536,
                              0.10373613216858213],
                             [0.7768413116977835,
                              0.1194256181371554,
                              0.10373307016506102],
                             [0.7768457963209963,
                              0.11942301486157232,
                              0.10373118881743151],
                             [0.7768485799863398,
                              0.11942139710095992,
                              0.1037300229127003],
                             [0.7768503211963912,
                              0.11942038404243417,
                              0.10372929476117458]]},
 'umsc_lam1_b': {'embedding': [10.92670065872412,
                               9.233726745711921,
                               9.601820416074625,
                               663.2244891647476,
                               520.7703662979517,
                               631.1170481665223],
                 'label_moves': [0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 1,
                                 2,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0,
                                 0],
                 'labels': '8278b6a1c24f8ace',
                 'n_iter': 29,
                 'objective': [-0.895460018470698,
                               -1.03153761580023,
                               -1.0905404954926199,
                               -1.1602454339150206,
                               -1.2565022936693278,
                               -1.35769493727789,
                               -1.487481077284613,
                               -1.6162629586909398,
                               -1.644412983803088,
                               -1.6531279439926492,
                               -1.65578051134878,
                               -1.6565760613209322,
                               -1.6567783028606207,
                               -1.6568511120996092,
                               -1.6569059324496656,
                               -1.6569474572122083,
                               -1.656979060229569,
                               -1.657003202080463,
                               -1.6570216987002753,
                               -1.6570359032549185,
                               -1.6570468319454794,
                               -1.657055252697944,
                               -1.6570617487275667,
                               -1.6570667647406476,
                               -1.6570706409144669,
                               -1.657073638133856,
                               -1.6570759568850353,
                               -1.657077751493722,
                               -1.6570791409119034],
                 'weights': [[0.39361890634302704,
                              0.35760257944118856,
                              0.24877851421578445],
                             [0.4318513129466166,
                              0.3581276225749961,
                              0.2100210644783874],
                             [0.46298542181730956,
                              0.33896889943855746,
                              0.19804567874413295],
                             [0.4986732883933919,
                              0.31018438915090274,
                              0.19114232245570528],
                             [0.5401617526741005,
                              0.27764945952650416,
                              0.18218878779939524],
                             [0.5810550357721214,
                              0.24773996760444558,
                              0.17120499662343305],
                             [0.6223146707319267,
                              0.22102499368783013,
                              0.1566603355802432],
                             [0.6581284563813786,
                              0.19856221065188168,
                              0.14330933296673962],
                             [0.6724044747631126,
                              0.18928372807883445,
                              0.13831179715805292],
                             [0.6771581895585255,
                              0.18620678057839068,
                              0.13663502986308382],
                             [0.6786442169892657,
                              0.18524788420047608,
                              0.1361078988102582],
                             [0.6790937419694063,
                              0.18495813727890564,
                              0.1359481207516881],
                             [0.6792083080490121,
                              0.18488431141748832,
                              0.1359073805334996],
                             [0.6792495727368519,
                              0.18485779788938037,
                              0.13589262937376761],
                             [0.6792806456078136,
                              0.18483788749676658,
                              0.13588146689541972],
                             [0.6793041842250468,
                              0.18482283697659463,
                              0.13587297879835855],
                             [0.6793220996772957,
                              0.1848114009261457,
                              0.13586649939655857],
                             [0.6793357860698436,
                              0.18480267574624903,
                              0.13586153818390745],
                             [0.6793462724438031,
                              0.18479599737256164,
                              0.1358577301836353],
                             [0.679354325700564,
                              0.18479087263796976,
                              0.13585480166146624],
                             [0.6793605218260134,
                              0.18478693217595188,
                              0.13585254599803487],
                             [0.6793652961174212,
                              0.1847838974536523,
                              0.13585080642892644],
                             [0.6793689791897679,
                              0.18478155728773935,
                              0.13584946352249272],
                             [0.6793718231518961,
                              0.18477975086168372,
                              0.13584842598642005],
                             [0.6793740208612733,
                              0.18477835528766973,
                              0.13584762385105706],
                             [0.6793757202261577,
                              0.18477727640028313,
                              0.1358470033735591],
                             [0.6793770349143425,
                              0.1847764418828385,
                              0.13584652320281884],
                             [0.6793780524238,
                              0.18477579609880943,
                              0.1358461514773905],
                             [0.6793788401974276,
                              0.18477529618296287,
                              0.13584586361960949]]},
 'umsc_parameter_free_no_consensus': {'embedding': [10.947924646994403,
                                                    9.37392755586712,
                                                    9.784362915500562,
                                                    663.3652550949575,
                                                    542.2254509551547,
                                                    611.8124020740007],
                                      'label_moves': [0,
                                                      0,
                                                      0,
                                                      0,
                                                      0,
                                                      0,
                                                      0,
                                                      0],
                                      'labels': 'fa5b805a7415ece5',
                                      'n_iter': 8,
                                      'objective': [1.12960109130408,
                                                    1.1257841799997848,
                                                    1.1255743450272009,
                                                    1.1255566711501177,
                                                    1.125552907124817,
                                                    1.125550808183358,
                                                    1.1255496268009628,
                                                    1.1255489566144976],
                                      'weights': [[0.5255490066699499,
                                                   0.5065995556796975,
                                                   0.4095571899532636],
                                                  [0.5312731577382327,
                                                   0.5102409137189402,
                                                   0.40506123360713386],
                                                  [0.5317476982112955,
                                                   0.5105081835655405,
                                                   0.40471125599462665],
                                                  [0.5317897847096382,
                                                   0.5105305476792799,
                                                   0.4046806900839381],
                                                  [0.5317986322580925,
                                                   0.5105353908202108,
                                                   0.4046741063954378],
                                                  [0.5318034985216076,
                                                   0.5105381421761808,
                                                   0.40467041171961676],
                                                  [0.5318062023228832,
                                                   0.5105397199474746,
                                                   0.40466832212662984],
                                                  [0.5318077178937458,
                                                   0.5105406314909068,
                                                   0.4046671323129044]]},
 'umsc_uniform': {'embedding': [10.946746263332638,
                                9.490266542901997,
                                9.750585248961837,
                                661.7411583324,
                                568.5866267122962,
                                590.6816747130983],
                  'label_moves': [0, 0],
                  'labels': 'dea2beef75c4fb50',
                  'n_iter': 2,
                  'objective': [-0.6787349701441038, -0.6787349865215561],
                  'weights': [[0.3333333333333333,
                               0.3333333333333333,
                               0.3333333333333333],
                              [0.3333333333333333,
                               0.3333333333333333,
                               0.3333333333333333]]}}
