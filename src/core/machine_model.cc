#include "core/machine_model.hh"

namespace ehpsim
{
namespace core
{

double
MachineModel::gpuPeakFlops(gpu::Pipe pipe, gpu::DataType dt,
                           bool sparse) const
{
    auto it = explicit_flops.find({pipe, dt});
    if (it != explicit_flops.end())
        return sparse ? it->second * 2 : it->second;
    const std::uint64_t rate =
        gpu::opsPerClockPerCu(gen, pipe, dt, sparse);
    return static_cast<double>(rate) * num_cus * gpu_clock_ghz * 1e9;
}

BytesPerSecond
MachineModel::effectiveMemBandwidth(std::uint64_t footprint) const
{
    // Footprints that fit in the memory-side cache stream at cache
    // bandwidth; larger ones blend toward HBM bandwidth.
    const double hbm = mem_bw * mem_efficiency;
    if (cache_capacity == 0 || cache_bw <= hbm)
        return hbm;
    if (footprint <= cache_capacity)
        return cache_bw * mem_efficiency;
    const double hit = static_cast<double>(cache_capacity) /
                       static_cast<double>(footprint);
    // Bandwidth of a stream with hit fraction 'hit' served by the
    // cache and the rest by HBM (parallel service).
    const double cache_eff = cache_bw * mem_efficiency;
    return 1.0 / ((1.0 - hit) / hbm + hit / cache_eff);
}

MachineModel
mi300aModel()
{
    MachineModel m;
    m.name = "MI300A";
    m.gen = gpu::CdnaGen::cdna3;
    m.num_cus = 228;
    m.gpu_clock_ghz = 1.7;
    m.mem_bw = tbps(5.3);
    m.cache_bw = tbps(17.0);
    m.cache_capacity = 256ull * 1024 * 1024;
    m.mem_capacity = 128ull * 1024 * 1024 * 1024;
    m.cpu_flops = 24 * 16 * 3.7e9;      // 24 Zen4 cores
    // The CPU side addresses HBM directly but 24 cores sustain only
    // a few hundred GB/s of demand themselves.
    m.cpu_mem_bw = gbps(400.0);
    m.unified = true;
    return m;
}

MachineModel
mi300xModel()
{
    MachineModel m = mi300aModel();
    m.name = "MI300X";
    m.num_cus = 304;
    m.mem_capacity = 192ull * 1024 * 1024 * 1024;
    // Discrete accelerator: host attaches over PCIe Gen5 x16.
    m.unified = false;
    m.cpu_flops = 96 * 16 * 3.7e9;      // full EPYC host
    m.cpu_mem_bw = gbps(460.0);         // 12ch DDR5 host memory
    m.host_link_bw = gbps(64.0);
    return m;
}

MachineModel
mi250xNodeModel()
{
    MachineModel m;
    m.name = "MI250X+EPYC";
    m.gen = gpu::CdnaGen::cdna2;
    m.num_cus = 220;                    // both GCDs
    m.gpu_clock_ghz = 1.7;
    m.mem_bw = tbps(3.2);               // HBM2e
    m.cache_bw = tbps(3.2);             // no Infinity Cache
    m.cache_capacity = 0;
    m.mem_capacity = 128ull * 1024 * 1024 * 1024;
    m.cpu_flops = 64 * 8 * 3.5e9;       // "optimized 3rd Gen EPYC"
    m.cpu_mem_bw = gbps(205.0);         // 8ch DDR4
    m.unified = false;
    // Frontier's coherent CPU-GPU Infinity Fabric: 36 GB/s per
    // direction per GCD, two GCDs per module.
    m.host_link_bw = gbps(72.0);
    return m;
}

MachineModel
epycCpuModel()
{
    MachineModel m;
    m.name = "EPYC-CPU";
    m.num_cus = 0;
    m.mem_bw = gbps(460.0);
    m.cache_bw = m.mem_bw;
    m.cache_capacity = 0;
    m.mem_capacity = 768ull * 1024 * 1024 * 1024;
    m.cpu_flops = 96 * 16 * 3.7e9;
    m.cpu_mem_bw = gbps(460.0);
    m.unified = true;                   // no GPU to copy to
    return m;
}

MachineModel
baselineGpuModel()
{
    MachineModel m;
    m.name = "BaselineGPU";
    m.num_cus = 0;
    // H100-class published peaks (dense): FP16 ~989 Tflops,
    // FP8 ~1979 Tflops, FP64 matrix ~67 Tflops.
    m.explicit_flops[{gpu::Pipe::matrix, gpu::DataType::fp16}] =
        989e12;
    m.explicit_flops[{gpu::Pipe::matrix, gpu::DataType::bf16}] =
        989e12;
    m.explicit_flops[{gpu::Pipe::matrix, gpu::DataType::fp8}] =
        1979e12;
    m.explicit_flops[{gpu::Pipe::matrix, gpu::DataType::fp64}] =
        67e12;
    m.explicit_flops[{gpu::Pipe::matrix, gpu::DataType::fp32}] =
        495e12;
    m.explicit_flops[{gpu::Pipe::vector, gpu::DataType::fp64}] =
        34e12;
    m.explicit_flops[{gpu::Pipe::vector, gpu::DataType::fp32}] =
        67e12;
    m.mem_bw = tbps(3.35);
    m.cache_bw = tbps(3.35);
    m.cache_capacity = 50ull * 1024 * 1024;
    m.mem_capacity = 80ull * 1024 * 1024 * 1024;
    m.cpu_flops = 64 * 16 * 3.0e9;
    m.cpu_mem_bw = gbps(300.0);
    m.unified = false;
    m.host_link_bw = gbps(64.0);
    return m;
}

} // namespace core
} // namespace ehpsim
