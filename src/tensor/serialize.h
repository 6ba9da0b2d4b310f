#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/autograd.h"
#include "util/fs.h"
#include "util/status.h"

/// \file serialize.h
/// \brief Tensor records and the BATN parameter checkpoint: save the
/// tensors of a trained model and load them back into a freshly
/// constructed model of the same architecture.
///
/// A tensor record is `u32 rank | i64 dim[rank] | f32 data[numel]`.
/// BATN and the BACK training checkpoint (core/checkpoint.h) both store
/// tensors as records, read back by the one bounds-checked
/// `ReadTensorRecord`.
///
/// BATN is a sealed container (util/fs.h), version 2, whose body is
/// `u64 count | count tensor records`. Files are written atomically, so
/// a killed save never leaves a torn checkpoint. On load the CRC is
/// re-checked and every shape verified: architecture mismatches,
/// truncation and bit-flips all fail with a descriptive Status instead
/// of corrupting weights.

namespace ba::tensor {

/// Smallest tensor record: a rank-0 header and its one float.
inline constexpr size_t kMinTensorRecordBytes = sizeof(uint32_t) + sizeof(float);

/// \brief Appends the tensor record of `t` to `out`.
void AppendTensorRecord(std::string* out, const Tensor& t);

/// \brief Reads one tensor record into `out`. A rank, dim or payload
/// the remaining bytes cannot back is rejected before anything is
/// allocated; errors are `in->Corrupt` messages prefixed with `what`.
Status ReadTensorRecord(util::SealedBody* in, const std::string& what,
                        Tensor* out);

/// \brief Renders `params` as a BATN image — the byte-exact content
/// SaveParameters writes to disk. Container formats (e.g. the
/// BaClassifier "BACL" checkpoint) embed this image verbatim.
std::string SerializeParameters(const std::vector<Var>& params);

/// \brief Parses a BATN image produced by SerializeParameters (or read
/// back from a SaveParameters file) into `params` in-place. Fails with
/// a descriptive Status unless magic, CRC, count and every shape match;
/// `context` names the source in error messages (e.g. the file path).
Status DeserializeParameters(const std::vector<Var>& params,
                             const std::string& image,
                             const std::string& context);

/// \brief Writes the values of `params` to `path`.
Status SaveParameters(const std::vector<Var>& params,
                      const std::string& path);

/// \brief Loads parameters saved by SaveParameters into `params`
/// (in-place). Fails unless count and every shape match exactly.
Status LoadParameters(const std::vector<Var>& params,
                      const std::string& path);

}  // namespace ba::tensor
