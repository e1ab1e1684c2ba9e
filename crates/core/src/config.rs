//! Pipeline configuration.

use crate::{CkptError, Result};
use ckpt_deflate::Level;
use ckpt_quant::{Method, QuantConfig};
use ckpt_wavelet::{Kernel, WaveletPlan};

/// Final entropy-coding container applied over the formatted output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Container {
    /// gzip, as the paper's implementation uses.
    Gzip,
    /// No final pass (exposes the formatted size for analysis).
    None,
}

/// Which `WCK1` stream the writer formats; docs/FORMAT.md names the
/// flags bits each sets. Only `Product` may change what it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLayout {
    /// The stream the paper measured (Figure 5), which the figure
    /// binaries write so that their rates compare like with like.
    Paper,
    /// The default: both bands as integers on power-of-two grids whose
    /// steps follow from the quantizer's bin width, the low band's as
    /// residuals against its Lorenzo prediction, in only the byte
    /// planes they use; where no grid fits (a constant array), the
    /// paper's stream with its doubles byte-transposed.
    Product,
    /// The paper's stream with the low band quantized too: the ablation
    /// that shows why the paper keeps it exact. The product never
    /// selects it.
    QuantizedLowBand,
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressorConfig {
    /// Quantizer method and parameters (`n`, `d`).
    pub quant: QuantConfig,
    /// Wavelet decomposition depth (the paper uses a single level).
    pub plan: WaveletPlan,
    /// DEFLATE effort for the final pass.
    pub level: Level,
    /// Which container wraps the formatted bytes.
    pub container: Container,
    /// Which stream the formatter writes.
    pub layout: StreamLayout,
    /// Wavelet kernel: CDF 5/3 (JPEG 2000's lossless kernel, the
    /// default), the paper's Haar, or CDF 9/7.
    pub kernel: Kernel,
    /// Worker threads that deflate the members of a chunked gzip
    /// container. It says only how many threads claim members: no
    /// byte depends on it. The wavelet and the quantizer are serial at
    /// every count.
    pub threads: usize,
    /// Uncompressed bytes per chunk of the gzip container: a formatted
    /// stream longer than this goes out as the chunked multi-member
    /// format (WPK1), whose members deflate and inflate in parallel;
    /// a shorter one as a single gzip member. The compressed bytes
    /// depend on this, not on `threads`.
    pub chunk_bytes: usize,
}

impl CompressorConfig {
    /// The product default: the paper's proposed quantizer at n = 128,
    /// d = 64, one CDF 5/3 level and gzip, writing
    /// [`StreamLayout::Product`]. The paper's own stream is this with
    /// [`StreamLayout::Paper`] and [`Kernel::Haar`] (DESIGN.md §11 "The
    /// kernel").
    pub fn paper_proposed() -> Self {
        CompressorConfig {
            quant: QuantConfig { method: Method::Proposed, n: 128, d: 64 },
            plan: WaveletPlan::SINGLE,
            level: Level::Default,
            container: Container::Gzip,
            layout: StreamLayout::Product,
            kernel: Kernel::Cdf53,
            threads: 1,
            chunk_bytes: ckpt_deflate::chunked::DEFAULT_CHUNK_BYTES,
        }
    }

    /// The paper's simple-quantizer baseline at n = 128.
    pub fn paper_simple() -> Self {
        CompressorConfig {
            quant: QuantConfig { method: Method::Simple, n: 128, d: 64 },
            ..Self::paper_proposed()
        }
    }

    /// Sets the division number `n` (Figures 7/8 sweep this).
    pub fn with_n(mut self, n: usize) -> Self {
        self.quant.n = n;
        self
    }

    /// Sets the quantizer method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.quant.method = method;
        self
    }

    /// Sets the spike partition count `d`.
    pub fn with_d(mut self, d: usize) -> Self {
        self.quant.d = d;
        self
    }

    /// Sets the container.
    pub fn with_container(mut self, container: Container) -> Self {
        self.container = container;
        self
    }

    /// Sets the wavelet depth.
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.plan = WaveletPlan { levels };
        self
    }

    /// Selects the stream layout.
    pub fn with_layout(mut self, layout: StreamLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Selects the wavelet kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets how many workers deflate a chunked container's members.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the uncompressed chunk size of the chunked gzip container.
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        self.quant.validate().map_err(CkptError::from)?;
        if self.plan.levels == 0 {
            return Err(CkptError::Format("wavelet levels must be >= 1".into()));
        }
        if self.plan.levels > 32 {
            return Err(CkptError::Format("wavelet levels > 32 unsupported".into()));
        }
        if self.threads == 0 {
            return Err(CkptError::Format("threads must be >= 1".into()));
        }
        if self.threads > 1024 {
            return Err(CkptError::Format("threads > 1024 unsupported".into()));
        }
        if self.chunk_bytes == 0 {
            return Err(CkptError::Format("chunk_bytes must be >= 1".into()));
        }
        Ok(())
    }
}

impl Default for CompressorConfig {
    fn default() -> Self {
        Self::paper_proposed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = CompressorConfig::paper_proposed();
        assert_eq!(c.quant.method, Method::Proposed);
        assert_eq!(c.quant.n, 128);
        assert_eq!(c.quant.d, 64);
        assert_eq!(c.plan.levels, 1);
        assert_eq!(c.container, Container::Gzip);
        assert_eq!(c.layout, StreamLayout::Product);
        assert_eq!(c.kernel, Kernel::Cdf53);
        c.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = CompressorConfig::paper_proposed()
            .with_n(16)
            .with_d(32)
            .with_method(Method::Simple)
            .with_levels(2)
            .with_container(Container::None);
        assert_eq!(c.quant.n, 16);
        assert_eq!(c.quant.d, 32);
        assert_eq!(c.quant.method, Method::Simple);
        assert_eq!(c.plan.levels, 2);
        assert_eq!(c.container, Container::None);
        c.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CompressorConfig::paper_proposed().with_n(0).validate().is_err());
        assert!(CompressorConfig::paper_proposed().with_n(300).validate().is_err());
        assert!(CompressorConfig::paper_proposed().with_levels(0).validate().is_err());
        assert!(CompressorConfig::paper_proposed().with_levels(64).validate().is_err());
        assert!(CompressorConfig::paper_proposed().with_threads(0).validate().is_err());
        assert!(CompressorConfig::paper_proposed().with_threads(4096).validate().is_err());
        assert!(CompressorConfig::paper_proposed().with_chunk_bytes(0).validate().is_err());
    }

    #[test]
    fn threads_default_to_serial() {
        let c = CompressorConfig::paper_proposed();
        assert_eq!(c.threads, 1);
        assert!(c.chunk_bytes >= 1);
        let p = c.with_threads(8).with_chunk_bytes(1 << 16);
        assert_eq!(p.threads, 8);
        assert_eq!(p.chunk_bytes, 1 << 16);
        p.validate().unwrap();
    }
}
