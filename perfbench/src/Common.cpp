//===- perfbench/src/Common.cpp - Clock, statistics, spans, report --------===//

#include "Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>

namespace perfbench {

const char *const kBatchApps[6] = {"pagerank", "sssp", "wcc",
                                   "spmv",     "agg",  "moldyn"};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t subSeed(uint64_t Seed, uint64_t Stream) {
  // splitmix64 over (seed, stream): independent, reproducible streams.
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL + Stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double peakRssMb(const std::string &Pid) {
  std::ifstream F("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0.0;
}

bool resetPeakRss() {
  ::malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current resident size.
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  const bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

double hostRefSeconds() {
  // A serial multiply-xorshift chain: no memory traffic, no vector units,
  // so its time moves only with the core's speed.
  const double T0 = now();
  uint64_t X = 0x1234567ULL;
  for (int I = 0; I < 20000000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    X ^= X >> 29;
  }
  const double T = now() - T0;
  volatile uint64_t Sink = X;
  (void)Sink;
  return T;
}

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

int Recorder::add(const std::string &Name, double Start, double End,
                  int Parent, int64_t Op) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, Start, End, Parent, Op});
  return static_cast<int>(Spans.size()) - 1;
}

std::vector<double> Recorder::selfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[S.Parent].push_back({S.Start, S.End});
  std::vector<double> Self(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<double, double>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0.0, Reach = P.Start;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, P.End);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Self[I] = (P.End - P.Start) - Covered;
  }
  return Self;
}

double Recorder::medianSelf(const std::string &Name) const {
  const std::vector<double> Self = selfTimes();
  std::vector<double> V;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == Name)
      V.push_back(Self[I]);
  return median(V);
}

namespace {

void appendDouble(std::string &Out, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

} // namespace

bool Recorder::write(const std::string &Path, double Origin) const {
  const std::vector<double> Self = selfTimes();
  std::string Out = "{\"spans\":[";
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += I ? ",\n" : "\n";
    Out += "{\"name\":\"" + S.Name + "\",\"start\":";
    appendDouble(Out, S.Start - Origin);
    Out += ",\"end\":";
    appendDouble(Out, S.End - Origin);
    Out += ",\"parent\":" + std::to_string(S.Parent) +
           ",\"op\":" + std::to_string(S.Op) + "}";
  }
  Out += "],\n\"ops\":[";
  bool First = true;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].Parent >= 0)
      continue;
    std::map<std::string, double> ByName;
    for (std::size_t J = 0; J < Spans.size(); ++J)
      if (Spans[J].Op == Spans[I].Op)
        ByName[Spans[J].Name] += Self[J];
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "{\"op\":" + std::to_string(Spans[I].Op) + ",\"name\":\"" +
           Spans[I].Name + "\",\"wall\":";
    appendDouble(Out, Spans[I].End - Spans[I].Start);
    Out += ",\"unaccounted\":";
    appendDouble(Out, Self[I]);
    Out += ",\"self\":{";
    bool FirstName = true;
    for (const auto &[Name, T] : ByName) {
      Out += FirstName ? "" : ",";
      FirstName = false;
      Out += "\"" + Name + "\":";
      appendDouble(Out, T);
    }
    Out += "}}";
  }
  Out += "]}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  if (!Values.count(Name))
    Order.push_back(Name);
  Values[Name] = {std::isfinite(Value) ? Value : 0.0, Unit};
}

std::string Report::json() const {
  std::string Out = "{\"correct\":";
  Out += (Failed == 0 && Attempted > 0) ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(Attempted) +
         ",\"failed\":" + std::to_string(Failed) + ",\"metrics\":{";
  for (std::size_t I = 0; I < Order.size(); ++I) {
    const auto &[V, Unit] = Values.at(Order[I]);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    if (I)
      Out += ',';
    Out += '"';
    Out += Order[I];
    Out += "\":{\"value\":";
    Out += Buf;
    Out += ",\"unit\":\"";
    Out += Unit;
    Out += "\"}";
  }
  Out += "}}";
  return Out;
}

} // namespace perfbench
