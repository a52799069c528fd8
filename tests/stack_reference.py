"""A slow, independent reference for a whole RecurrentStack training step.

It follows the equations in the charrnn.layers module docstring and nothing
of that module's code: batch-major, one time step at a time, with no
hoisted projection (each step computes x W_x + h W_h + b), no backward
blocks, no folded embedding (it gathers table[ids] and scatters d table with
np.add.at) and no in-place gate transform. Dropout applies the keep masks a
training-mode forward drew, so the reference and the model see the same
units dropped.

stack_reference(params, kind, dropout, ids, targets, masks) returns
(logits [B, L, V], mean loss, grads keyed like RecurrentStack.params()).
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_forward(w_x, w_h, b, xs):
    """xs [B, L, D] -> (hs [B, L, H], per-step cache)."""
    batch, length, _ = xs.shape
    hidden = w_h.shape[0]
    h, c = np.zeros((batch, hidden)), np.zeros((batch, hidden))
    hs, cache = np.zeros((batch, length, hidden)), []
    for t in range(length):
        a = xs[:, t] @ w_x + h @ w_h + b
        i = _sigmoid(a[:, :hidden])
        f = _sigmoid(a[:, hidden : 2 * hidden])
        g = np.tanh(a[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(a[:, 3 * hidden :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        cache.append((xs[:, t], h, c, i, f, g, o, c_new))
        h, c = h_new, c_new
        hs[:, t] = h
    return hs, cache


def _lstm_backward(w_x, w_h, cache, dhs):
    """dhs [B, L, H] -> (dxs [B, L, D], {"w_x", "w_h", "b"})."""
    batch, length, hidden = dhs.shape
    grads = {"w_x": np.zeros_like(w_x), "w_h": np.zeros_like(w_h),
             "b": np.zeros(w_h.shape[1])}
    dxs = np.zeros((batch, length, w_x.shape[0]))
    dh_next, dc_next = np.zeros((batch, hidden)), np.zeros((batch, hidden))
    for t in range(length - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, c = cache[t]
        dh = dhs[:, t] + dh_next
        tc = np.tanh(c)
        dc = dh * o * (1.0 - tc * tc) + dc_next
        da = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
        grads["w_x"] += x.T @ da
        grads["w_h"] += h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dxs[:, t] = da @ w_x.T
        dh_next = da @ w_h.T
        dc_next = dc * f
    return dxs, grads


def _gru_forward(w_x, w_h, b, xs):
    batch, length, _ = xs.shape
    hidden = w_h.shape[0]
    h = np.zeros((batch, hidden))
    hs, cache = np.zeros((batch, length, hidden)), []
    for t in range(length):
        ax = xs[:, t] @ w_x + b
        zr = _sigmoid(ax[:, : 2 * hidden] + h @ w_h[:, : 2 * hidden])
        z, r = zr[:, :hidden], zr[:, hidden:]
        n = np.tanh(ax[:, 2 * hidden :] + (r * h) @ w_h[:, 2 * hidden :])
        cache.append((xs[:, t], h, z, r, n))
        h = z * h + (1.0 - z) * n
        hs[:, t] = h
    return hs, cache


def _gru_backward(w_x, w_h, cache, dhs):
    batch, length, hidden = dhs.shape
    grads = {"w_x": np.zeros_like(w_x), "w_h": np.zeros_like(w_h),
             "b": np.zeros(w_h.shape[1])}
    dxs = np.zeros((batch, length, w_x.shape[0]))
    dh_next = np.zeros((batch, hidden))
    for t in range(length - 1, -1, -1):
        x, h_prev, z, r, n = cache[t]
        dh = dhs[:, t] + dh_next
        da_n = dh * (1.0 - z) * (1.0 - n * n)
        drh = da_n @ w_h[:, 2 * hidden :].T  # d loss / d (r*h)
        da_z = dh * (h_prev - n) * z * (1.0 - z)
        da_r = drh * h_prev * r * (1.0 - r)
        da = np.concatenate([da_z, da_r, da_n], axis=1)
        grads["w_x"] += x.T @ da
        grads["w_h"][:, : 2 * hidden] += h_prev.T @ da[:, : 2 * hidden]
        grads["w_h"][:, 2 * hidden :] += (r * h_prev).T @ da_n
        grads["b"] += da.sum(axis=0)
        dxs[:, t] = da @ w_x.T
        dh_next = dh * z + drh * r + da[:, : 2 * hidden] @ w_h[:, : 2 * hidden].T
    return dxs, grads


_CELLS = {"lstm": (_lstm_forward, _lstm_backward), "gru": (_gru_forward, _gru_backward),
          "birnn": (_lstm_forward, _lstm_backward)}


def stack_reference(params: dict, kind: str, dropout: float, ids: np.ndarray,
                    targets: np.ndarray, masks: list):
    """Logits, mean loss and every gradient of one training step.

    params are keyed like RecurrentStack.params(); masks holds each layer's
    boolean keep mask time-major [L, B, F], as in StackTape.masks, or None.
    """
    forward, backward = _CELLS[kind]
    directions = ("fwd.", "bwd.") if kind == "birnn" else ("",)
    depth = len(masks)
    scale = 1.0 / (1.0 - dropout)
    x = params["embedding.table"][ids]
    inputs, caches = [], []
    for i in range(depth):
        inputs.append(x)
        outs, layer_caches = [], []
        for d, prefix in enumerate(directions):
            p = [params[f"rnn{i}.{prefix}{k}"] for k in ("w_x", "w_h", "b")]
            hs, cache = forward(*p, x if d == 0 else x[:, ::-1])
            outs.append(hs if d == 0 else hs[:, ::-1])
            layer_caches.append(cache)
        caches.append(layer_caches)
        x = np.concatenate(outs, axis=2)
        if masks[i] is not None:
            x = x * masks[i].swapaxes(0, 1) * scale
    logits = x @ params["dense.w"] + params["dense.b"]

    z = logits - logits.max(axis=2, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=2, keepdims=True))
    picked = np.take_along_axis(log_p, targets[..., None], axis=2)
    loss = float(-picked.mean())
    dlogits = np.exp(log_p)
    np.put_along_axis(dlogits, targets[..., None],
                      np.take_along_axis(dlogits, targets[..., None], axis=2) - 1.0, axis=2)
    dlogits /= targets.size

    grads = {"dense.w": np.einsum("blf,blv->fv", x, dlogits), "dense.b": dlogits.sum(axis=(0, 1))}
    dx = dlogits @ params["dense.w"].T
    for i in range(depth - 1, -1, -1):
        if masks[i] is not None:
            dx = dx * masks[i].swapaxes(0, 1) * scale
        hidden = dx.shape[2] // len(directions)
        dinput = np.zeros_like(inputs[i])
        for d, prefix in enumerate(directions):
            w_x, w_h = params[f"rnn{i}.{prefix}w_x"], params[f"rnn{i}.{prefix}w_h"]
            dhs = dx[:, :, d * hidden : (d + 1) * hidden]
            if d == 0:
                dxs, layer_grads = backward(w_x, w_h, caches[i][d], dhs)
                dinput += dxs
            else:
                dxs, layer_grads = backward(w_x, w_h, caches[i][d], dhs[:, ::-1])
                dinput += dxs[:, ::-1]
            for k, v in layer_grads.items():
                grads[f"rnn{i}.{prefix}{k}"] = v
        dx = dinput
    d_table = np.zeros_like(params["embedding.table"])
    np.add.at(d_table, ids, dx)
    grads["embedding.table"] = d_table
    return logits, loss, grads
