"""Packaged experiment configs, one JSON file per preset (hamdelay --preset NAME)."""
