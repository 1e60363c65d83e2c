"""Satellite: the training stack stays float32 end-to-end.

A full federated round — dataset, forward, backward, optimizer update,
upload, aggregation — must never silently promote to float64 (Python
scalar arithmetic and library helpers are the usual culprits)."""

import numpy as np

from repro.core.aggregation import ClientUpdate, aggregate_heterogeneous
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.data.loader import DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import SlimmableVGG
from repro.nn.optim import SGD


def _assert_all_float32(state, label):
    for name, value in state.items():
        assert np.asarray(value).dtype == np.float32, f"{label}: {name} is {np.asarray(value).dtype}"


class TestDtypeStability:
    def test_dataset_and_model_start_float32(self, easy_setup):
        assert easy_setup["train"].images.dtype == np.float32
        model = easy_setup["arch"].build(rng=np.random.default_rng(0))
        _assert_all_float32(model.state_dict(), "initial state")

    def test_forward_backward_step_stay_float32(self, easy_setup):
        arch = easy_setup["arch"]
        model = arch.build(rng=np.random.default_rng(0))
        model.train()
        loader = DataLoader(easy_setup["train"], batch_size=16, shuffle=True, rng=np.random.default_rng(1))
        images, labels = next(iter(loader))
        assert images.dtype == np.float32

        logits = model(images)
        assert logits.dtype == np.float32

        loss_fn = CrossEntropyLoss()
        loss_fn(logits, labels)
        grad = loss_fn.backward()
        assert grad.dtype == np.float32
        model.backward(grad)
        for name, param in model.named_parameters():
            assert param.grad.dtype == np.float32, name

        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.5, weight_decay=1e-4)
        optimizer.step()
        _assert_all_float32(model.state_dict(), "after step")

    def test_dropout_keeps_forward_backward_float32(self):
        arch = SlimmableVGG(
            config="vgg11", num_classes=4, input_shape=(3, 32, 32), width_multiplier=0.1,
            classifier_widths=(8, 8), dropout=0.5,
        )
        model = arch.build(rng=np.random.default_rng(0))
        model.train()
        images = np.random.default_rng(1).normal(size=(4, 3, 32, 32)).astype(np.float32)
        labels = np.random.default_rng(2).integers(0, 4, size=4)

        logits = model(images)
        assert logits.dtype == np.float32

        loss_fn = CrossEntropyLoss()
        loss_fn(logits, labels)
        model.backward(loss_fn.backward())
        for name, param in model.named_parameters():
            assert param.grad.dtype == np.float32, name

    def test_full_round_keeps_global_state_float32(self, easy_setup):
        federated = FederatedConfig(num_rounds=1, clients_per_round=3, eval_every=1)
        local = LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2)
        algorithm = AdaptiveFL(
            architecture=easy_setup["arch"],
            train_dataset=easy_setup["train"],
            partition=easy_setup["partition"],
            test_dataset=easy_setup["test"],
            profiles=easy_setup["profiles"],
            resource_model=easy_setup["resource_model"],
            algorithm_config=AdaptiveFLConfig(federated=federated, local=local, pool=easy_setup["pool"]),
            seed=0,
        )
        _assert_all_float32(algorithm.global_state, "before round")
        algorithm.run()
        _assert_all_float32(algorithm.global_state, "after round")

    def test_aggregation_preserves_dtype(self):
        rng = np.random.default_rng(0)
        for dtype in (np.float32, np.float64):
            global_state = {"w": rng.normal(size=(6, 4)).astype(dtype)}
            updates = [
                ClientUpdate({"w": rng.normal(size=(4, 4)).astype(dtype)}, 3),
                ClientUpdate({"w": rng.normal(size=(6, 4)).astype(dtype)}, 5),
            ]
            merged = aggregate_heterogeneous(global_state, updates)
            assert merged["w"].dtype == dtype
