import weakref

import numpy as np
import pytest

from retinassl import autodiff as ad
from retinassl import distill
from retinassl import vit as vit_module
from retinassl.autodiff import Tape, Tensor, backward, finite_difference
from retinassl.crops import MultiCropConfig, bicubic_resize
from retinassl.errors import ContractError, InputError, ParameterError
from retinassl.evaluation import extract_features
from retinassl.vit import (
    EVAL,
    TRAIN,
    BackboneOutput,
    ProjectionHeadConfig,
    ViTConfig,
    backbone_forward,
    encoder_forward,
    init_backbone_params,
    init_head_params,
    interpolate_pos_embed,
    last_layer_attention,
    param_shapes,
    patch_embed,
    projection_head_forward,
)


def tiny_vit(**kw) -> ViTConfig:
    defaults = dict(image_size=32, patch_size=8, depth=2, embed_dim=16,
                    n_heads=2, n_cls_tokens=1, drop_path_rate=0.1)
    defaults.update(kw)
    return ViTConfig(**defaults)


def desk_vit(**kw) -> ViTConfig:
    """The acceptance desk backbone: 48 px, patch 8, depth 2, width 32."""
    defaults = dict(image_size=48, patch_size=8, depth=2, embed_dim=32,
                    n_heads=4, n_cls_tokens=1, drop_path_rate=0.1)
    defaults.update(kw)
    return ViTConfig(**defaults)


def tiny_head(**kw) -> ProjectionHeadConfig:
    defaults = dict(hidden_dim=24, bottleneck_dim=8, output_dim=32)
    defaults.update(kw)
    return ProjectionHeadConfig(**defaults)


class TestViTConfig:
    def test_token_count(self):
        cfg = tiny_vit()
        assert cfg.n_tokens == 16 + 1

    def test_224_patch8_tokens(self):
        cfg = tiny_vit(image_size=224)
        assert cfg.n_tokens == 28 * 28 + 1  # 785

    def test_invalid_divisibility(self):
        with pytest.raises(ParameterError):
            tiny_vit(image_size=30)
        with pytest.raises(ParameterError):
            tiny_vit(embed_dim=15)
        with pytest.raises(ParameterError):
            tiny_vit(patch_size=7)


class TestParamShapes:
    @pytest.mark.parametrize("vit_kw, head_kw", [
        (dict(), dict(hidden_dim=32, bottleneck_dim=8, output_dim=64)),
        (dict(image_size=48, depth=3, embed_dim=12, n_heads=3, n_cls_tokens=2,
              mlp_ratio=2.5), dict(hidden_dim=16, bottleneck_dim=4, output_dim=10)),
        (dict(image_size=64, patch_size=16, depth=1, embed_dim=8, n_heads=1,
              n_cls_tokens=3), dict(hidden_dim=8, bottleneck_dim=8, output_dim=2)),
    ], ids=["tiny", "multi-cls", "patch16"])
    def test_table_matches_initialized_params(self, vit_kw, head_kw):
        vit, head = tiny_vit(**vit_kw), ProjectionHeadConfig(**head_kw)
        rng = np.random.default_rng(0)
        params = init_backbone_params(vit, rng)
        params.update(init_head_params(head, vit.n_cls_tokens * vit.embed_dim, rng))
        table = param_shapes(vit, head)
        assert table == {k: p.data.shape for k, p in params.items()}
        assert list(table) == list(params)


class TestPatchEmbed:
    def test_token_counts(self):
        cfg = tiny_vit()
        params = init_backbone_params(cfg, np.random.default_rng(0))
        tokens = patch_embed(np.zeros((2, 3, 32, 32)), cfg, params)
        assert tokens.shape == (2, 17, 16)

    def test_zero_image_zero_weights_gives_pos_plus_cls(self):
        cfg = tiny_vit()
        params = init_backbone_params(cfg, np.random.default_rng(1))
        params["patch_embed.w"].data[:] = 0.0
        tokens = patch_embed(np.zeros((1, 3, 32, 32)), cfg, params)
        expected = params["pos"].data.copy()
        expected[:1] += params["cls"].data
        np.testing.assert_allclose(tokens.data[0], expected, atol=1e-12)

    def test_indivisible_side_rejected(self):
        cfg = tiny_vit()
        params = init_backbone_params(cfg, np.random.default_rng(2))
        with pytest.raises(InputError):
            patch_embed(np.zeros((1, 3, 12, 12)), cfg, params)


class TestInterpolatePosEmbed:
    def test_identity_when_grids_match(self):
        pos = Tensor(np.random.default_rng(3).normal(size=(17, 8)))
        out = interpolate_pos_embed(pos, 4, 4, 1)
        assert out is pos

    def test_constant_rows_preserved(self):
        v = np.arange(8.0)
        pos = Tensor(np.vstack([np.zeros(8), np.tile(v, (16, 1))]))
        out = interpolate_pos_embed(pos, 4, 2, 1)
        np.testing.assert_allclose(out.data[1:], np.tile(v, (4, 1)), atol=1e-9)

    def test_cls_rows_untouched(self):
        rng = np.random.default_rng(4)
        pos = Tensor(rng.normal(size=(2 + 16, 8)))
        out = interpolate_pos_embed(pos, 4, 3, 2)
        np.testing.assert_array_equal(out.data[:2], pos.data[:2])
        assert out.shape == (2 + 9, 8)

    def test_linear_ramp_endpoints(self):
        ramp = np.linspace(0.0, 3.0, 4)
        grid = np.tile(ramp, (4, 1)).reshape(16, 1)  # ramp along x
        pos = Tensor(np.vstack([np.zeros((1, 1)), grid]))
        out = interpolate_pos_embed(pos, 4, 8, 1).data[1:].reshape(8, 8)
        # Interior of an upsampled ramp stays linear with matching slope.
        xs = (np.arange(8) + 0.5) * 0.5 - 0.5
        np.testing.assert_allclose(out[4, 3:5], xs[3:5], atol=1e-9)

    @pytest.mark.parametrize("old, new", [(4, 2), (4, 7), (6, 3)])
    def test_matches_bicubic_resize_of_the_grid(self, old, new):
        # one kernel: resampling the embedding rows equals resizing them as
        # a (channels, grid, grid) image
        rng = np.random.default_rng(7)
        pos = Tensor(rng.normal(size=(1 + old * old, 5)))
        out = interpolate_pos_embed(pos, old, new, 1).data[1:]
        grid = pos.data[1:].T.reshape(5, old, old)
        expected = bicubic_resize(grid, new).reshape(5, new * new).T
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_token_count_mismatch(self):
        with pytest.raises(ContractError):
            interpolate_pos_embed(Tensor(np.zeros((10, 4))), 4, 2, 1)


class TestEncoderForward:
    def test_eval_deterministic(self):
        cfg = tiny_vit()
        params = init_backbone_params(cfg, np.random.default_rng(5))
        img = np.random.default_rng(6).random((1, 3, 32, 32))
        o1 = backbone_forward(img, cfg, params, mode=EVAL)
        o2 = backbone_forward(img, cfg, params, mode=EVAL)
        assert np.array_equal(o1.cls_features.data, o2.cls_features.data)

    def test_zero_drop_rate_train_equals_eval(self):
        cfg = tiny_vit(drop_path_rate=0.0)
        params = init_backbone_params(cfg, np.random.default_rng(7))
        img = np.random.default_rng(8).random((2, 3, 32, 32))
        tr = backbone_forward(img, cfg, params, mode=TRAIN, rng=np.random.default_rng(0))
        ev = backbone_forward(img, cfg, params, mode=EVAL)
        np.testing.assert_array_equal(tr.cls_features.data, ev.cls_features.data)

    def test_branch_drop_frequency(self):
        # each residual branch draws rng.random(batch) in order, so a twin
        # generator replays every drop decision of the forward
        cfg = tiny_vit(depth=1, drop_path_rate=0.1)
        params = init_backbone_params(cfg, np.random.default_rng(9))
        img = np.random.default_rng(10).random((1, 3, 32, 32))
        rng, twin = np.random.default_rng(123), np.random.default_rng(123)
        drops = 0
        trials = 10_000
        passes = trials // (2 * cfg.depth)  # 2 branch decisions per block pass
        by_pattern = {}
        for _ in range(passes):
            out = backbone_forward(img, cfg, params, mode=TRAIN, rng=rng)
            pattern = tuple(bool(twin.random(1)[0] < 0.1) for _ in range(2 * cfg.depth))
            assert rng.bit_generator.state == twin.bit_generator.state
            drops += sum(pattern)
            # the output is a function of the replayed decisions alone
            first = by_pattern.setdefault(pattern, out.cls_features.data)
            np.testing.assert_array_equal(out.cls_features.data, first)
        freq = drops / trials
        assert abs(freq - 0.10) <= 0.01
        assert len(by_pattern) == 4
        outputs = [o.tobytes() for o in by_pattern.values()]
        assert len(set(outputs)) == 4

    def test_permutation_equivariance_with_zero_pos(self):
        cfg = tiny_vit(drop_path_rate=0.0)
        params = init_backbone_params(cfg, np.random.default_rng(11))
        params["pos"].data[:] = 0.0
        img = np.random.default_rng(12).random((1, 3, 32, 32))
        tokens = patch_embed(img, cfg, params)
        perm = np.random.default_rng(13).permutation(16)
        permuted = tokens.data.copy()
        permuted[:, 1:, :] = permuted[:, 1 + perm, :]
        out = encoder_forward(tokens, cfg, params, mode=EVAL)
        out_p = encoder_forward(Tensor(permuted), cfg, params, mode=EVAL)
        np.testing.assert_allclose(out_p.cls_features.data, out.cls_features.data,
                                   atol=1e-10)

    def test_attention_rows_sum_to_one(self, monkeypatch):
        cfg = tiny_vit()
        params = init_backbone_params(cfg, np.random.default_rng(14))
        img = np.random.default_rng(15).random((2, 3, 32, 32))
        blocks = []
        real = ad.attention

        def spy(*args):
            out = real(*args)
            blocks.append(out[1])
            return out

        monkeypatch.setattr(ad, "attention", spy)
        out = backbone_forward(img, cfg, params, mode=EVAL)
        assert len(blocks) == cfg.depth and out.attention is blocks[-1]
        for att in blocks:
            np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-5)


class TestProjectionHead:
    def test_l2_stage_unit_norm(self):
        cfg = tiny_head()
        rng = np.random.default_rng(16)
        params = init_head_params(cfg, 16, rng)
        z = Tensor(rng.normal(size=(4, 16)))
        h = ad.gelu(ad.matmul(z, params["head.fc1.w"]) + params["head.fc1.b"])
        h = ad.gelu(ad.matmul(h, params["head.fc2.w"]) + params["head.fc2.b"])
        h = ad.matmul(h, params["head.fc3.w"]) + params["head.fc3.b"]
        normed = ad.l2_normalize_rows(h)
        np.testing.assert_allclose(
            np.linalg.norm(normed.data, axis=-1), 1.0, atol=1e-6)

    def test_zero_input_zero_bias_gives_zero_logits(self):
        cfg = tiny_head()
        params = init_head_params(cfg, 16, np.random.default_rng(17))
        z = Tensor(np.zeros((2, 16)))
        # GELU(0) = 0 and biases are zero at init, so the bottleneck is zero;
        # the norm guard passes it through and logits are exactly zero.
        logits = projection_head_forward(z, cfg, params)
        np.testing.assert_array_equal(logits.data, np.zeros((2, cfg.output_dim)))

    def test_bottleneck_scale_invariance(self):
        cfg = tiny_head()
        rng = np.random.default_rng(18)
        params = init_head_params(cfg, 16, rng)
        h = rng.normal(size=(3, cfg.bottleneck_dim))
        direction = ad.l2_normalize_rows(params["head.last.dir"])
        w = direction * ad.reshape(params["head.last.mag"], (cfg.output_dim, 1))

        def logits_of(x):
            z = ad.l2_normalize_rows(Tensor(x))
            return ad.matmul(z, ad.transpose(w, (1, 0))).data

        np.testing.assert_allclose(logits_of(h), logits_of(10.0 * h), atol=1e-5)

    def test_multi_cls_concat_width(self):
        cfg = tiny_head()
        params = init_head_params(cfg, 4 * 16, np.random.default_rng(19))
        feats = Tensor(np.random.default_rng(20).normal(size=(2, 4, 16)))
        logits = projection_head_forward(feats, cfg, params)
        assert logits.shape == (2, cfg.output_dim)


class TestLastLayerAttention:
    def test_shape_and_row_sums(self):
        cfg = tiny_vit(n_cls_tokens=4, embed_dim=12, n_heads=6)
        params = init_backbone_params(cfg, np.random.default_rng(21))
        img = np.random.default_rng(22).random((3, 32, 32))
        att = last_layer_attention(img, cfg, params)
        assert att.shape == (6, 4, 16)
        np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-5)

    def test_identical_patches_uniform_attention(self):
        cfg = tiny_vit()
        params = init_backbone_params(cfg, np.random.default_rng(23))
        img = np.full((3, 32, 32), 0.5)  # all patches identical
        att = last_layer_attention(img, cfg, params)
        np.testing.assert_allclose(att, 1.0 / 16.0, atol=1e-4)


class TestEndToEndGradient:
    def test_backbone_plus_head_matches_finite_differences(self):
        cfg = tiny_vit(image_size=16, depth=1, embed_dim=8, n_heads=2,
                       drop_path_rate=0.0, mlp_ratio=2.0)
        head_cfg = tiny_head(hidden_dim=8, bottleneck_dim=4, output_dim=6)
        rng = np.random.default_rng(24)
        params = init_backbone_params(cfg, rng, std=0.3)
        params.update(init_head_params(head_cfg, cfg.n_cls_tokens * cfg.embed_dim,
                                       rng, std=0.3))
        img = np.random.default_rng(25).random((1, 3, 16, 16))
        target = np.full((1, head_cfg.output_dim), 1.0 / head_cfg.output_dim)

        def forward():
            out = backbone_forward(img, cfg, params, mode=EVAL)
            logits = projection_head_forward(out.cls_features, head_cfg, params)
            log_p = ad.log_softmax_rows(logits, 0.5)
            return ad.tensor_sum(ad.mul(Tensor(-target), log_p))

        leaves = list(params.values())
        with Tape() as tape:
            loss = forward()
        backward(loss, tape, leaves=leaves)
        analytic = {k: p.grad.copy() for k, p in params.items()}

        # eps=1e-6: the L2-normalize stage has enough curvature that 1e-5
        # central differences carry ~1e-4 truncation error of their own.
        numeric = finite_difference(lambda: forward().item(), leaves, epsilon=1e-6)
        for (name, a), n in zip(params.items(), numeric):
            rel = np.abs(analytic[name] - n) / np.maximum.reduce(
                [np.abs(analytic[name]), np.abs(n), np.full_like(n, 1e-3)])
            assert rel.max() <= 1e-4, f"gradient mismatch for {name}: {rel.max()}"

    def test_gradient_through_pos_interpolation(self):
        # A view smaller than the configured image exercises the bicubic
        # resample path; pos must still receive a correct gradient.
        cfg = tiny_vit(image_size=32, depth=1, embed_dim=8, n_heads=2,
                       drop_path_rate=0.0, mlp_ratio=2.0)
        params = init_backbone_params(cfg, np.random.default_rng(26))
        img = np.random.default_rng(27).random((1, 3, 16, 16))

        def forward():
            out = backbone_forward(img, cfg, params, mode=EVAL)
            return (out.cls_features * out.cls_features).sum()

        with Tape() as tape:
            loss = forward()
        backward(loss, tape, leaves=[params["pos"]])
        analytic = params["pos"].grad.copy()
        numeric = finite_difference(lambda: forward().item(), [params["pos"]])[0]
        rel = np.abs(analytic - numeric) / np.maximum.reduce(
            [np.abs(analytic), np.abs(numeric), np.full_like(numeric, 1e-3)])
        assert rel.max() <= 1e-4


# One pre-norm block in train mode: an entry per layer, with the attention
# core as one entry and each drop-path factor as a `mul`. The last block also
# slices the residual down to the rows it computes.
BLOCK_OPS = ["layer_norm", "linear", "attention", "linear", "mul", "add",
             "layer_norm", "linear", "gelu", "linear", "mul", "add"]
LAST_BLOCK_OPS = BLOCK_OPS[:4] + ["getitem"] + BLOCK_OPS[4:]


def _op_names(tape):
    """Each tape entry named by its gradient functions' __qualname__ (an
    input that needs no gradient has None in place of one)."""
    names = []
    for _, _, grad_fns in tape.nodes:
        (name,) = {fn.__qualname__.split(".")[0] for fn in grad_fns if fn is not None}
        names.append(name)
    return names


def _owner(arr):
    """The array that owns `arr`'s memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _captured(fn):
    """What a gradient function's closure holds, by variable name."""
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__ or ())))


def _held_values(value):
    """Every value reachable from `value` through closures, tuples and lists."""
    if callable(value) and hasattr(value, "__code__"):
        for held in _captured(value).values():
            yield from _held_values(held)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_values(item)
    else:
        yield value


def _desk_train_step(monkeypatch, on_backward):
    """One train step at the acceptance desk recipe (48 px, depth 2, batch
    16, 2 + 4 crops), calling on_backward(tape, leaves) as backward starts."""
    vit = desk_vit()
    head = ProjectionHeadConfig(hidden_dim=64, bottleneck_dim=16, output_dim=256)
    crop = MultiCropConfig(global_out_size=48, local_out_size=24, n_local=4)
    cfg = distill.DistillConfig(batch_size=16, total_epochs=2)
    state = distill.init_train_state(vit, head, seed=0, init_std=0.05)
    original = distill.backward

    def spy(loss, tape, leaves):
        on_backward(tape, leaves)
        return original(loss, tape, leaves=leaves)

    monkeypatch.setattr(distill, "backward", spy)
    images = np.random.default_rng(0).random((16, 3, 48, 48))
    distill.train_step(images, state, vit, head, crop, cfg, 1)


class TestTapeEntries:
    def test_block_records_one_entry_per_layer(self):
        cfg = tiny_vit(depth=2)
        params = init_backbone_params(cfg, np.random.default_rng(0))
        tokens = Tensor(np.random.default_rng(1).normal(
            size=(2, cfg.n_tokens, cfg.embed_dim)))
        with Tape() as tape:
            encoder_forward(tokens, cfg, params, mode=TRAIN,
                            rng=np.random.default_rng(2))
        # then the CLS slice and the final norm of its rows
        assert _op_names(tape) == BLOCK_OPS + LAST_BLOCK_OPS + ["getitem", "layer_norm"]

    def test_desk_train_step_entries(self, monkeypatch):
        entries = []
        _desk_train_step(monkeypatch, lambda tape, _: entries.append(len(tape.nodes)))
        assert len(entries) == 1 and entries[0] <= 100

    def test_gradient_functions_hold_no_op_outputs(self, monkeypatch):
        # a gradient function keeps the arrays it reads; an op's output or a
        # constant Tensor held by one would keep the whole value alive
        held = []

        def collect(tape, leaves):
            for _, _, grad_fns in tape.nodes:
                for fn in grad_fns:
                    if fn is not None:
                        held.extend(v for v in _held_values(fn) if isinstance(v, Tensor)
                                    and not any(v is leaf for leaf in leaves))

        _desk_train_step(monkeypatch, collect)
        assert held == []


class TestTapeHoldsWhatGradientsRead:
    def test_block_values_no_gradient_reads_die_in_the_forward(self, monkeypatch):
        cfg = tiny_vit(depth=2)
        params = init_backbone_params(cfg, np.random.default_rng(0))
        tokens = Tensor(np.random.default_rng(1).normal(
            size=(2, cfg.n_tokens, cfg.embed_dim)))
        refs = {}

        def keep(name, arr):
            refs.setdefault(name, weakref.ref(_owner(arr)))

        def wrap(owner, attr, after):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                after(args, out)
                return out
            monkeypatch.setattr(owner, attr, wrapper)

        # the first block's values, each the first of its kind
        wrap(vit_module, "_drop_path", lambda args, out: keep("drop-path product", out.data))
        wrap(ad, "add", lambda args, out: keep("residual sum", out.data))
        wrap(ad, "linear", lambda args, out: args[1] is params["blocks.0.attn.proj.w"]
             and keep("attn.proj output", out.data))
        wrap(ad, "attention", lambda args, out: keep("attention probabilities", out[1]))
        wrap(ad, "layer_norm", lambda args, out: keep("layer_norm xhat", next(
            _captured(fn)["xhat"] for fn in Tape._active.nodes[-1][2]
            if fn is not None and "xhat" in _captured(fn))))

        with Tape() as tape:
            out = encoder_forward(tokens, cfg, params, mode=TRAIN,
                                  rng=np.random.default_rng(2))
            loss = (out.cls_features * out.cls_features).sum()
        alive = {name: ref() is not None for name, ref in refs.items()}
        assert alive == {"drop-path product": False, "residual sum": False,
                         "attn.proj output": False, "attention probabilities": True,
                         "layer_norm xhat": True}
        backward(loss, tape, leaves=list(params.values()))
        assert not any(ref() is not None for ref in refs.values())


# ---------------------------------------------------------------------------
# the last block computes only the rows that are read
# ---------------------------------------------------------------------------

def _full_row_encoder(tokens, config, params, *, mode, rng=None, n_last_blocks=1):
    """Reference for encoder_forward: every block computes every token row,
    from the same ops in the same order; its attention is the last block's
    probabilities for every query row."""
    scale = 1.0 / np.sqrt(config.head_dim)
    nc = config.n_cls_tokens
    cls = []
    x = tokens
    for i in range(config.depth):
        pre = f"blocks.{i}."
        h = ad.layer_norm(x, params[pre + "ln1.scale"], params[pre + "ln1.shift"])
        qkv = ad.linear(h, params[pre + "attn.qkv.w"], params[pre + "attn.qkv.b"])
        out, attention = ad.attention(qkv, config.n_heads, scale, x.shape[1])
        out = ad.linear(out, params[pre + "attn.proj.w"], params[pre + "attn.proj.b"])
        x = x + vit_module._drop_path(out, config.drop_path_rate, mode, rng)
        h = ad.layer_norm(x, params[pre + "ln2.scale"], params[pre + "ln2.shift"])
        m = ad.gelu(ad.linear(h, params[pre + "mlp.fc1.w"], params[pre + "mlp.fc1.b"]))
        m = ad.linear(m, params[pre + "mlp.fc2.w"], params[pre + "mlp.fc2.b"])
        x = x + vit_module._drop_path(m, config.drop_path_rate, mode, rng)
        if i >= config.depth - n_last_blocks:
            cls.append(ad.layer_norm(x[:, :nc, :], params["ln_f.scale"],
                                     params["ln_f.shift"]))
    return BackboneOutput(cls_features=ad.concat(cls, axis=1), attention=attention)


class TestLastBlockRows:
    # 23 images is one whole chunk of extract_features at the desk config
    @pytest.mark.parametrize("n_images", [1, 2, 23])
    @pytest.mark.parametrize("n_cls", [1, 2])
    def test_extract_features_has_the_full_row_bits(self, n_images, n_cls):
        cfg = desk_vit(n_cls_tokens=n_cls)
        params = init_backbone_params(cfg, np.random.default_rng(40), std=0.05)
        images = np.random.default_rng(41).random((n_images, 3, 48, 48))
        for n_last in (1, 2):
            want = _full_row_encoder(patch_embed(images, cfg, params), cfg, params,
                                     mode=EVAL, n_last_blocks=n_last).cls_features
            want = want.data.reshape(n_images, -1)
            got = extract_features(params, images, cfg, n_last_blocks=n_last)
            assert np.array_equal(got, want)

    def test_n_last_blocks_outside_the_depth_is_refused(self):
        cfg = desk_vit()
        params = init_backbone_params(cfg, np.random.default_rng(40))
        tokens = patch_embed(np.zeros((1, 3, 48, 48)), cfg, params)
        for n in (0, cfg.depth + 1):
            with pytest.raises(ParameterError):
                encoder_forward(tokens, cfg, params, mode=EVAL, n_last_blocks=n)

    @pytest.mark.parametrize("n_cls", [1, 2, 3])
    def test_attention_has_the_full_row_bits(self, n_cls):
        cfg = desk_vit(n_cls_tokens=n_cls)
        params = init_backbone_params(cfg, np.random.default_rng(42), std=0.05)
        image = np.random.default_rng(43).random((3, 48, 48))
        tokens = patch_embed(image, cfg, params)
        want = _full_row_encoder(tokens, cfg, params, mode=EVAL).attention
        got = encoder_forward(tokens, cfg, params, mode=EVAL).attention
        rows = max(n_cls, 2)
        assert got.shape == (1, cfg.n_heads, rows, cfg.n_tokens)
        assert np.array_equal(got, want[:, :, :rows])
        ref = want[0, :, :n_cls, n_cls:]
        assert np.array_equal(last_layer_attention(image, cfg, params),
                              ref / ref.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("mode", [TRAIN, EVAL])
    def test_backbone_attention_is_the_last_blocks_query_rows(self, mode):
        cfg = desk_vit(n_cls_tokens=3)
        params = init_backbone_params(cfg, np.random.default_rng(47), std=0.05)
        images = np.random.default_rng(48).random((2, 3, 48, 48))
        want = _full_row_encoder(patch_embed(images, cfg, params), cfg, params,
                                 mode=mode, rng=np.random.default_rng(49)).attention
        got = backbone_forward(images, cfg, params, mode=mode,
                               rng=np.random.default_rng(49)).attention
        assert got.shape == (2, cfg.n_heads, 3, cfg.n_tokens)
        assert np.array_equal(got, want[:, :, :3])

    def test_mode_is_a_required_keyword(self):
        cfg = desk_vit()
        params = init_backbone_params(cfg, np.random.default_rng(50))
        images = np.zeros((1, 3, 48, 48))
        tokens = patch_embed(images, cfg, params)
        for call in (lambda: backbone_forward(images, cfg, params, EVAL),
                     lambda: encoder_forward(tokens, cfg, params, EVAL),
                     lambda: backbone_forward(images, cfg, params),
                     lambda: encoder_forward(tokens, cfg, params)):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("n_cls, rows", [(1, 2), (2, 2), (3, 3)])
    def test_last_block_mlp_sees_only_the_read_rows(self, monkeypatch, n_cls, rows):
        cfg = desk_vit(n_cls_tokens=n_cls)
        params = init_backbone_params(cfg, np.random.default_rng(44))
        images = np.random.default_rng(45).random((3, 3, 48, 48))
        seen = []
        real = ad.gelu

        def spy(x):
            seen.append(x.shape)
            return real(x)

        monkeypatch.setattr(ad, "gelu", spy)
        backbone_forward(images, cfg, params, mode=TRAIN, rng=np.random.default_rng(0))
        assert seen == [(3, cfg.n_tokens, 128), (3, rows, 128)]

    def test_desk_step_gradients_match_full_rows(self, monkeypatch):
        vit = desk_vit()
        head = ProjectionHeadConfig(hidden_dim=64, bottleneck_dim=16, output_dim=256)
        crop = MultiCropConfig(global_out_size=48, local_out_size=24, n_local=4)
        cfg = distill.DistillConfig(batch_size=16, total_epochs=2)
        images = np.random.default_rng(46).random((16, 3, 48, 48))
        real_clip = distill.clip_gradients

        def step_grads():
            grads = []

            def spy(g, threshold):
                grads.append({k: v.copy() for k, v in g.items()})
                return real_clip(g, threshold)

            monkeypatch.setattr(distill, "clip_gradients", spy)
            state = distill.init_train_state(vit, head, seed=3, init_std=0.05)
            distill.train_step(images, state, vit, head, crop, cfg, 1)
            return grads[0]

        got = step_grads()
        calls = []

        def reference(*args, **kwargs):
            calls.append(1)
            return _full_row_encoder(*args, **kwargs)

        monkeypatch.setattr(vit_module, "encoder_forward", reference)
        want = step_grads()
        assert calls, "the full-row reference did not run"
        assert got.keys() == want.keys()
        for name, g in want.items():
            err = np.abs(got[name] - g).max()
            assert err <= 1e-12 * np.abs(g).max(), f"{name}: {err}"
