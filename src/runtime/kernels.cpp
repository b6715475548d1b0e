#include "runtime/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "graph/graph.hpp"

namespace vedliot::runtime_kernels {

float apply_activation(float x, OpKind kind, double alpha) {
  switch (kind) {
    case OpKind::kRelu: return x > 0.0f ? x : 0.0f;
    case OpKind::kRelu6: return std::clamp(x, 0.0f, 6.0f);
    case OpKind::kLeakyRelu: return x > 0.0f ? x : static_cast<float>(alpha) * x;
    case OpKind::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case OpKind::kHSigmoid: return std::clamp(x / 6.0f + 0.5f, 0.0f, 1.0f);
    case OpKind::kHSwish: return x * std::clamp(x / 6.0f + 0.5f, 0.0f, 1.0f);
    case OpKind::kTanh: return std::tanh(x);
    case OpKind::kMish: {
      const float sp = std::log1p(std::exp(x));  // softplus
      return x * std::tanh(sp);
    }
    default: return x;
  }
}

Conv2dGeometry Conv2dGeometry::of(const Graph& g, const Node& n) {
  Conv2dGeometry geo;
  const Shape& in = g.node(n.inputs.at(0)).out_shape;
  geo.batch = n.out_shape.dim(0);
  if (n.kind == OpKind::kDense) {
    geo.in_c = in.dim(1);
    geo.in_h = geo.in_w = geo.out_h = geo.out_w = 1;
    geo.out_c = n.out_shape.dim(1);
    return geo;
  }
  geo.in_c = in.c();
  geo.in_h = in.h();
  geo.in_w = in.w();
  geo.out_c = n.out_shape.c();
  geo.out_h = n.out_shape.h();
  geo.out_w = n.out_shape.w();
  geo.kernel = n.attrs.get_int("kernel");
  geo.stride = n.attrs.get_int_or("stride", 1);
  geo.pad = n.attrs.get_int_or("pad", 0);
  geo.groups = n.attrs.get_int_or("groups", 1);
  return geo;
}

double Conv2dGeometry::macs() const {
  return static_cast<double>(batch) * static_cast<double>(out_c) *
         static_cast<double>(cols()) * static_cast<double>(patch());
}

void depthwise_f32(const float* in, const float* w, const float* bias, float* out,
                   const Conv2dGeometry& g, std::int64_t bc_lo, std::int64_t bc_hi, OpKind act,
                   double alpha) {
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  for (std::int64_t bc = bc_lo; bc < bc_hi; ++bc) {
    const std::int64_t c = bc % g.out_c;
    const float* plane = in + bc * IH * IW;
    const float* wc = w + c * k * k;
    float* oplane = out + bc * OH * OW;
    const float init = bias != nullptr ? bias[c] : 0.0f;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        float acc = init;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc += plane[ih * IW + iw] * wc[kh * k + kw];
          }
        }
        oplane[oh * OW + ow] = apply_activation(acc, act, alpha);
      }
    }
  }
}

std::uint64_t depthwise_s8(const std::int8_t* in, const std::int8_t* w, const std::int32_t* bias,
                           std::int8_t* out, const Conv2dGeometry& g, std::int64_t bc_lo,
                           std::int64_t bc_hi, const double* mult, std::int32_t q_lo,
                           std::int32_t q_hi) {
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  std::uint64_t saturations = 0;
  for (std::int64_t bc = bc_lo; bc < bc_hi; ++bc) {
    const std::int64_t c = bc % g.out_c;
    const std::int8_t* plane = in + bc * IH * IW;
    const std::int8_t* wc = w + c * k * k;
    std::int8_t* oplane = out + bc * OH * OW;
    const std::int32_t init = bias != nullptr ? bias[c] : 0;
    const double m_mult = mult[c];
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        std::int32_t acc = init;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc += static_cast<std::int32_t>(plane[ih * IW + iw]) *
                   static_cast<std::int32_t>(wc[kh * k + kw]);
          }
        }
        oplane[oh * OW + ow] =
            requant_clamped(static_cast<double>(acc) * m_mult, q_lo, q_hi, saturations);
      }
    }
  }
  return saturations;
}

}  // namespace vedliot::runtime_kernels
