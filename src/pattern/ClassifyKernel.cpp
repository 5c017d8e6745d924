//===- pattern/ClassifyKernel.cpp - Per-variant classifier entry ----------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Compiled once per backend variant (see core/Variant.h): each pass
// defines pattern::<variant>::classify at its own lane width, and
// core::DispatchTable::Classify binds the one the selected tier runs.
//
//===----------------------------------------------------------------------===//

#include "pattern/ClassifyKernel.h"

#include "core/Backends.h"
#include "core/Variant.h"

using namespace cfv;

pattern::PatternResult
pattern::CFV_VARIANT_NS::classify(const TileSource &S) {
  return pattern::classify<simd::NativeBackend>(S);
}
