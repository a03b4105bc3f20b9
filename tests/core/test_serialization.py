"""Tests for model persistence."""

import json

import numpy as np
import pytest

from repro.core import QuClassi
from repro.core.serialization import load_model, model_from_dict, model_to_dict, save_model
from repro.encoding import SingleAngleEncoder
from repro.exceptions import ValidationError


class TestRoundTrip:
    def test_save_and_load_preserves_predictions(self, tmp_path):
        model = QuClassi(num_features=4, num_classes=3, architecture="sd", seed=0)
        features = np.random.default_rng(0).uniform(0.1, 0.9, size=(5, 4))
        path = tmp_path / "model.json"
        model.save(str(path))
        restored = QuClassi.load(str(path))
        np.testing.assert_allclose(
            model.class_fidelities(features), restored.class_fidelities(features), atol=1e-12
        )

    def test_round_trip_preserves_configuration(self, tmp_path):
        model = QuClassi(
            num_features=6,
            num_classes=2,
            architecture="sde",
            encoder=SingleAngleEncoder(),
            temperature=0.5,
            seed=1,
        )
        path = tmp_path / "model.json"
        save_model(model, str(path))
        restored = load_model(str(path))
        assert restored.architecture == "sde"
        assert restored.num_features == 6
        assert isinstance(restored.encoder, SingleAngleEncoder)
        assert restored.temperature == pytest.approx(0.5)

    def test_file_is_readable_json(self, tmp_path):
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        assert payload["model"] == "QuClassi"
        assert payload["architecture"] == "s"

    def test_creates_parent_directories(self, tmp_path):
        model = QuClassi(num_features=4, num_classes=2, seed=0)
        nested = tmp_path / "a" / "b" / "model.json"
        save_model(model, str(nested))
        assert nested.exists()


class TestValidation:
    def test_missing_fields_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"model": "QuClassi"})

    def test_unknown_model_type_rejected(self):
        payload = model_to_dict(QuClassi(num_features=4, num_classes=2, seed=0))
        payload["model"] = "SomethingElse"
        with pytest.raises(ValidationError):
            model_from_dict(payload)

    def test_newer_format_rejected(self):
        payload = model_to_dict(QuClassi(num_features=4, num_classes=2, seed=0))
        payload["format_version"] = 999
        with pytest.raises(ValidationError):
            model_from_dict(payload)

    def test_unknown_encoder_rejected(self):
        payload = model_to_dict(QuClassi(num_features=4, num_classes=2, seed=0))
        payload["encoder"] = "holographic"
        with pytest.raises(ValidationError):
            model_from_dict(payload)

    def test_custom_encoder_cannot_be_serialised(self):
        from repro.encoding.base import DataEncoder

        class WeirdEncoder(DataEncoder):
            def num_qubits(self, num_features):
                return num_features

            def num_angle_sites(self, num_features):
                return num_features

            def angle_matrix(self, feature_matrix):
                raise NotImplementedError

            def _append_skeleton(self, circuit, sites, qubits, num_features):
                raise NotImplementedError

        model = QuClassi(num_features=4, num_classes=2, encoder=WeirdEncoder(), seed=0)
        with pytest.raises(ValidationError):
            model_to_dict(model)
