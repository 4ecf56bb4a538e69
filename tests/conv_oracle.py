"""Generic grouped, strided 2-D convolution by direct summation: the oracle.

``dualtsst.kernels`` serves only the model's two kernel shapes; these three
functions compute any valid cross-correlation of ``x`` [N, Cin, H, W] with
``w`` [Cout, Cin / groups, kh, kw] at any stride, one einsum per kernel
position, and the tests check every kernel path against them.
"""

import numpy as np


def conv2d_forward_np(x, w, stride, groups):
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (wd - kw) // sw + 1
    cout_g = cout // groups
    xg = x.reshape(n, groups, cin_g, h, wd)
    wg = w.reshape(groups, cout_g, cin_g, kh, kw)
    out = np.zeros((n, groups, cout_g, ho, wo), dtype=x.dtype)
    for p in range(kh):
        for q in range(kw):
            xs = xg[:, :, :, p : p + sh * ho : sh, q : q + sw * wo : sw]
            out += np.einsum("ngihw,goi->ngohw", xs, wg[:, :, :, p, q])
    return out.reshape(n, cout, ho, wo)


def conv2d_backward_input_np(gout, w, x_shape, stride, groups):
    n, cin, h, wd = x_shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ho, wo = gout.shape[2], gout.shape[3]
    cout_g = cout // groups
    go = gout.reshape(n, groups, cout_g, ho, wo)
    wg = w.reshape(groups, cout_g, cin_g, kh, kw)
    gx = np.zeros(x_shape, dtype=gout.dtype).reshape(n, groups, cin_g, h, wd)
    for p in range(kh):
        for q in range(kw):
            contrib = np.einsum("ngohw,goi->ngihw", go, wg[:, :, :, p, q])
            gx[:, :, :, p : p + sh * ho : sh, q : q + sw * wo : sw] += contrib
    return gx.reshape(x_shape)


def conv2d_backward_kernel_np(gout, x, w_shape, stride, groups):
    cout, cin_g, kh, kw = w_shape
    n, cin, h, wd = x.shape
    sh, sw = stride
    ho, wo = gout.shape[2], gout.shape[3]
    cout_g = cout // groups
    xg = x.reshape(n, groups, cin_g, h, wd)
    go = gout.reshape(n, groups, cout_g, ho, wo)
    gw = np.zeros((groups, cout_g, cin_g, kh, kw), dtype=gout.dtype)
    for p in range(kh):
        for q in range(kw):
            xs = xg[:, :, :, p : p + sh * ho : sh, q : q + sw * wo : sw]
            gw[:, :, :, p, q] = np.einsum("ngihw,ngohw->goi", xs, go)
    return gw.reshape(w_shape)
