"""API-key authentication for the campaign service.

The Kobatela audit's P1 — one static ``dev-secret-key`` unlocking the
whole backend — is designed out here:

* **No default key.**  A service configured without keys refuses to
  construct unless it is explicitly in *dev mode* (``--dev``), and dev
  mode is loud about itself in ``/health``.
* **Multiple keys.**  Any number of keys may be active at once (one
  per client, per CI lane, per teammate), so rotating one caller never
  locks out the rest.
* **Hashed at the edge.**  Keys are blake2b-hashed the moment they
  enter the process; nothing in the service holds a plaintext key
  after startup, and verification compares digests with
  :func:`hmac.compare_digest`.

A client presents its key as ``Authorization: Bearer <key>`` or
``X-API-Key: <key>``.  On success the caller is identified by the
key's *key id* (a short digest prefix) — what a job's ``actor``
records, so a job names its submitter without storing secrets.
"""

import hashlib
import hmac
import os

#: Environment variable holding comma-separated API keys (an
#: alternative to repeating ``--api-key`` on the command line).
KEYS_ENV = "REPRO_SERVICE_KEYS"

#: Hex digest length of a stored key hash.
_DIGEST_SIZE = 32


class AuthConfigError(ValueError):
    """A service auth configuration that must not reach production."""


def hash_key(key):
    """Hex blake2b digest of one API key."""
    if isinstance(key, str):
        key = key.encode()
    return hashlib.blake2b(key, digest_size=_DIGEST_SIZE).hexdigest()


def key_id(key):
    """Short non-reversible identifier of a key (a job's actor)."""
    return "key:" + hash_key(key)[:12]


def keys_from_env(environ=None):
    """API keys listed in ``$REPRO_SERVICE_KEYS`` (comma-separated)."""
    raw = (environ or os.environ).get(KEYS_ENV, "")
    return [part.strip() for part in raw.split(",") if part.strip()]


class Authenticator:
    """Verifies presented API keys against a hashed key set.

    ``dev=True`` disables authentication entirely (every request is
    the ``"dev"`` principal) and exists for local hacking only; the
    constructor refuses a keyless non-dev configuration outright, so
    there is no accidental wide-open production mode.
    """

    def __init__(self, keys=(), dev=False):
        self.dev = dev
        self._hashes = {}          # hash -> key id
        for key in keys:
            if not key:
                raise AuthConfigError("empty API key")
            digest = hash_key(key)
            self._hashes[digest] = "key:" + digest[:12]
        if not dev and not self._hashes:
            raise AuthConfigError(
                "no API keys configured: pass --api-key (repeatable) "
                "or set $REPRO_SERVICE_KEYS, or opt into --dev mode "
                "explicitly (never in production)")

    @property
    def n_keys(self):
        return len(self._hashes)

    def authenticate(self, headers):
        """The authenticated principal for a request, or ``None``.

        *headers* is a lower-cased header dict.  In dev mode every
        request authenticates as ``"dev"``; otherwise the presented
        key (``Authorization: Bearer`` or ``X-API-Key``) must hash to
        a configured key.
        """
        if self.dev:
            return "dev"
        presented = None
        authorization = headers.get("authorization", "")
        if authorization.lower().startswith("bearer "):
            presented = authorization[7:].strip()
        if not presented:
            presented = headers.get("x-api-key", "").strip()
        if not presented:
            return None
        digest = hash_key(presented)
        for stored, principal in self._hashes.items():
            if hmac.compare_digest(digest, stored):
                return principal
        return None
