"""The stem flag: local training skips the first conv's input gradient.

Turning the stem's input gradient off must leave every parameter
gradient byte-identical, and must save exactly one ``col2im`` fold per
training step.
"""

import numpy as np
import pytest

from repro.core.config import LocalTrainingConfig
from repro.core.local_training import train_local_model
from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import available_architectures, create_architecture

SMALL = {
    "simple_cnn": dict(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=16),
    "vgg11": dict(num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1, classifier_widths=(8, 8)),
    "vgg16": dict(num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1, classifier_widths=(8, 8)),
    "resnet18": dict(num_classes=4, input_shape=(3, 16, 16), width_multiplier=0.125),
    "mobilenetv2": dict(
        num_classes=4, input_shape=(1, 16, 16), width_multiplier=0.25, stem_channels=8, head_channels=16
    ),
}


def _training_step(arch, input_grad: bool):
    """One forward/backward pass; returns the input gradient and every parameter gradient."""
    model = arch.build(rng=np.random.default_rng(0))
    model.train()
    model.stem.input_grad = input_grad
    images = np.random.default_rng(1).normal(size=(4, *arch.input_shape)).astype(np.float32)
    labels = np.random.default_rng(2).integers(0, arch.num_classes, size=4)
    loss_fn = CrossEntropyLoss()
    loss_fn(model(images), labels)
    grad_x = model.backward(loss_fn.backward())
    return grad_x, {name: param.grad.copy() for name, param in model.named_parameters()}


@pytest.mark.parametrize("name", available_architectures())
def test_stem_input_grad_off_keeps_parameter_grads_identical(name):
    arch = create_architecture(name, **SMALL[name])
    grad_on, grads_on = _training_step(arch, input_grad=True)
    grad_off, grads_off = _training_step(arch, input_grad=False)
    assert grad_on.shape == (4, *arch.input_shape)
    assert grad_off is None
    assert list(grads_on) == list(grads_off)
    for param_name, grad in grads_on.items():
        assert grad.dtype == grads_off[param_name].dtype
        assert grad.tobytes() == grads_off[param_name].tobytes(), param_name


def test_simple_cnn_training_step_folds_only_the_non_stem_conv(monkeypatch, easy_setup):
    calls = {"col2im": 0, "conv2d_backward": 0}
    for kernel in calls:
        original = getattr(F, kernel)

        def counted(*args, _original=original, _kernel=kernel, **kwargs):
            calls[_kernel] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(F, kernel, counted)
    arch = easy_setup["arch"]
    config = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=1)
    initial = arch.build(rng=np.random.default_rng(0)).state_dict()
    result = train_local_model(
        arch, arch.full_group_sizes(), initial, easy_setup["train"], config, np.random.default_rng(3)
    )
    assert result.num_steps == 1
    assert calls == {"col2im": 1, "conv2d_backward": 2}
