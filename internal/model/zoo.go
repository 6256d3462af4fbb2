package model

import (
	"fmt"
	"math"
)

// This file is the model zoo: builders for every model in the paper's
// corpus (§4.1). Graph shapes follow the published architectures; latency
// profiles are calibrated so that batch-size-1 latencies match the
// paper's Table 5 and batch scaling matches the serving curves in
// Figure 1. Generative models use per-decode-step latency.

// blockWeights returns n weights summing to 1 with exponential
// front-loading controlled by decay (0 = uniform). CV models spend their
// latency early (large spatial dimensions), transformers evenly (§3.3).
func blockWeights(n int, decay float64) []float64 {
	if n <= 0 {
		panic("model: blockWeights with n <= 0")
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		x := 0.0
		if n > 1 {
			x = float64(i) / float64(n-1)
		}
		w[i] = math.Exp(-decay * x)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// buildResNet constructs a residual CV model: stem, a chain of residual
// blocks (convs bypassed by a skip edge, merged by Add), and a pool+FC
// head. Only the block-boundary Adds are cut vertices, reproducing
// Figure 7(a): ramps between blocks, never inside.
func buildResNet(name string, blocks, convsPerBlock int, params int64, baseLat, beta float64) *Model {
	g := NewGraph()
	const stemFrac, headFrac = 0.05, 0.03
	bodyFrac := 1 - stemFrac - headFrac
	w := blockWeights(blocks, 1.2)

	in := g.AddNode("input", OpInput, 0, -1)
	stemConv := g.AddNode("stem.conv", OpConv, stemFrac*0.8, -1)
	stemPool := g.AddNode("stem.pool", OpPool, stemFrac*0.2, -1)
	g.AddEdge(in, stemConv)
	g.AddEdge(stemConv, stemPool)

	prev := stemPool
	for b := 0; b < blocks; b++ {
		bw := bodyFrac * w[b]
		convFrac := bw * 0.96 / float64(convsPerBlock)
		first := prev
		cur := prev
		for c := 0; c < convsPerBlock; c++ {
			conv := g.AddNode(fmt.Sprintf("block%d.conv%d", b, c), OpConv, convFrac, b)
			g.AddEdge(cur, conv)
			cur = conv
		}
		add := g.AddNode(fmt.Sprintf("block%d.add", b), OpAdd, bw*0.04, b)
		g.AddEdge(cur, add)
		g.AddEdge(first, add) // residual skip
		prev = add
	}

	pool := g.AddNode("head.pool", OpPool, headFrac*0.3, -1)
	fc := g.AddNode("head.fc", OpFC, headFrac*0.7, -1)
	out := g.AddNode("output", OpOutput, 0, -1)
	g.AddEdge(prev, pool)
	g.AddEdge(pool, fc)
	g.AddEdge(fc, out)

	return &Model{
		Name: name, Family: FamilyResNet, Graph: g, Params: params,
		BaseLatencyMS: baseLat, BatchBeta: beta, NumBlocks: blocks,
	}
}

// buildVGG constructs a chained (linear) CV model: conv layers with
// interleaved pools, then three FC layers. Every weight layer is a cut
// vertex, reproducing Figure 7(b): ramps feasible at all layers.
func buildVGG(name string, convs int, params int64, baseLat, beta float64) *Model {
	g := NewGraph()
	const convShare, poolShare, fcShare = 0.88, 0.02, 0.10
	w := blockWeights(convs, 1.0)
	in := g.AddNode("input", OpInput, 0, -1)
	prev := in
	// A pool after every second conv, VGG-style.
	pools := convs / 2
	poolFrac := poolShare / float64(pools)
	pi := 0
	for c := 0; c < convs; c++ {
		conv := g.AddNode(fmt.Sprintf("conv%d", c), OpConv, convShare*w[c], c)
		g.AddEdge(prev, conv)
		prev = conv
		if c%2 == 1 && pi < pools {
			pool := g.AddNode(fmt.Sprintf("pool%d", pi), OpPool, poolFrac, c)
			g.AddEdge(prev, pool)
			prev = pool
			pi++
		}
	}
	for f := 0; f < 3; f++ {
		fc := g.AddNode(fmt.Sprintf("fc%d", f), OpFC, fcShare/3, convs+f)
		g.AddEdge(prev, fc)
		prev = fc
	}
	out := g.AddNode("output", OpOutput, 0, -1)
	g.AddEdge(prev, out)
	return &Model{
		Name: name, Family: FamilyVGG, Graph: g, Params: params,
		BaseLatencyMS: baseLat, BatchBeta: beta, NumBlocks: convs + 3,
	}
}

// buildTransformer constructs an encoder- or decoder-stack transformer:
// embeddings, N blocks of (attention, residual Add, Norm, FFN, residual
// Add, Norm), and an FC head. The Add/Norm merge points are cut vertices
// while attention/FFN outputs are not, reproducing Figure 7(c).
func buildTransformer(name string, fam Family, blocks int, params int64, baseLat, beta float64, generative bool) *Model {
	g := NewGraph()
	const embedFrac, headFrac = 0.02, 0.02
	bodyFrac := 1 - embedFrac - headFrac
	w := blockWeights(blocks, 0) // even latency across blocks

	in := g.AddNode("input", OpInput, 0, -1)
	embed := g.AddNode("embed", OpEmbed, embedFrac, -1)
	g.AddEdge(in, embed)
	prev := embed
	for b := 0; b < blocks; b++ {
		bw := bodyFrac * w[b]
		attn := g.AddNode(fmt.Sprintf("block%d.attn", b), OpAttention, bw*0.42, b)
		add1 := g.AddNode(fmt.Sprintf("block%d.add1", b), OpAdd, bw*0.01, b)
		norm1 := g.AddNode(fmt.Sprintf("block%d.norm1", b), OpNorm, bw*0.02, b)
		ffn := g.AddNode(fmt.Sprintf("block%d.ffn", b), OpFFN, bw*0.50, b)
		add2 := g.AddNode(fmt.Sprintf("block%d.add2", b), OpAdd, bw*0.01, b)
		norm2 := g.AddNode(fmt.Sprintf("block%d.norm2", b), OpNorm, bw*0.04, b)
		g.AddEdge(prev, attn)
		g.AddEdge(attn, add1)
		g.AddEdge(prev, add1) // residual skip around attention
		g.AddEdge(add1, norm1)
		g.AddEdge(norm1, ffn)
		g.AddEdge(ffn, add2)
		g.AddEdge(norm1, add2) // residual skip around FFN
		g.AddEdge(add2, norm2)
		prev = norm2
	}
	head := g.AddNode("head.fc", OpFC, headFrac, -1)
	out := g.AddNode("output", OpOutput, 0, -1)
	g.AddEdge(prev, head)
	g.AddEdge(head, out)
	return &Model{
		Name: name, Family: fam, Graph: g, Params: params,
		BaseLatencyMS: baseLat, BatchBeta: beta, Generative: generative,
		NumBlocks: blocks,
	}
}

// Classification CV models (PyTorch Model Zoo pretrained on ImageNet).

// ResNet18 returns the ResNet-18 model (8 basic blocks).
func ResNet18() *Model { return buildResNet("resnet18", 8, 2, 11_700_000, 6.5, 0.06) }

// ResNet50 returns the ResNet-50 model (16 bottleneck blocks).
func ResNet50() *Model { return buildResNet("resnet50", 16, 3, 25_600_000, 16.4, 0.06) }

// ResNet101 returns the ResNet-101 model (33 bottleneck blocks).
func ResNet101() *Model { return buildResNet("resnet101", 33, 3, 44_500_000, 33.3, 0.06) }

// VGG11 returns the VGG-11 model.
func VGG11() *Model { return buildVGG("vgg11", 8, 132_900_000, 3.3, 0.30) }

// VGG13 returns the VGG-13 model.
func VGG13() *Model { return buildVGG("vgg13", 10, 133_000_000, 3.8, 0.30) }

// VGG16 returns the VGG-16 model.
func VGG16() *Model { return buildVGG("vgg16", 13, 138_400_000, 4.5, 0.30) }

// Classification NLP models (HuggingFace pretrained, Yelp fine-tuned).

// Distilbert returns DistilBERT-base (6 encoders, distilled).
func Distilbert() *Model {
	return buildTransformer("distilbert-base", FamilyBERT, 6, 66_000_000, 15.5, 0.20, false)
}

// BERTBase returns BERT-base (12 encoders).
func BERTBase() *Model {
	return buildTransformer("bert-base", FamilyBERT, 12, 110_000_000, 29.4, 0.25, false)
}

// BERTLarge returns BERT-large (24 encoders).
func BERTLarge() *Model {
	return buildTransformer("bert-large", FamilyBERT, 24, 345_000_000, 63.2, 0.30, false)
}

// GPT2Medium returns GPT2-medium used as a decoder-only classifier
// (24 blocks).
func GPT2Medium() *Model {
	return buildTransformer("gpt2-medium", FamilyGPT, 24, 345_000_000, 103.0, 0.58, false)
}

// QuantizedBERTBase returns the post-training int8 BERT-base variant
// (§4.2): ~1.7× faster, same architecture, less overparameterized.
func QuantizedBERTBase() *Model {
	m := buildTransformer("bert-base-int8", FamilyBERT, 12, 110_000_000, 17.3, 0.25, false)
	m.Quantized = true
	return m
}

// QuantizedBERTLarge returns the post-training int8 BERT-large variant.
func QuantizedBERTLarge() *Model {
	m := buildTransformer("bert-large-int8", FamilyBERT, 24, 345_000_000, 37.2, 0.30, false)
	m.Quantized = true
	return m
}

// Generative models; BaseLatencyMS is per decode step.

// T5Large returns the T5-large decoder stack (24 blocks, 770M params).
// The encoder runs once per sequence and is accounted for by the
// generative serving layer as prefill.
func T5Large() *Model {
	return buildTransformer("t5-large", FamilyT5, 24, 770_000_000, 16.0, 0.08, true)
}

// Llama27B returns the Llama-2 7B decoder (32 blocks).
func Llama27B() *Model {
	return buildTransformer("llama2-7b", FamilyLlama, 32, 6_700_000_000, 24.0, 0.08, true)
}

// Llama213B returns the Llama-2 13B decoder (40 blocks).
func Llama213B() *Model {
	return buildTransformer("llama2-13b", FamilyLlama, 40, 13_000_000_000, 38.0, 0.08, true)
}

// zoo lists every model's name and constructor, in zoo order. All and
// ByName both read it; each name must be the Name its constructor sets.
var zoo = []struct {
	name  string
	build func() *Model
}{
	{"resnet18", ResNet18}, {"resnet50", ResNet50}, {"resnet101", ResNet101},
	{"vgg11", VGG11}, {"vgg13", VGG13}, {"vgg16", VGG16},
	{"distilbert-base", Distilbert}, {"bert-base", BERTBase},
	{"bert-large", BERTLarge}, {"gpt2-medium", GPT2Medium},
	{"bert-base-int8", QuantizedBERTBase}, {"bert-large-int8", QuantizedBERTLarge},
	{"t5-large", T5Large}, {"llama2-7b", Llama27B}, {"llama2-13b", Llama213B},
}

// All returns a fresh instance of every model in the zoo.
func All() []*Model {
	out := make([]*Model, len(zoo))
	for i, z := range zoo {
		out[i] = z.build()
	}
	return out
}

// ClassificationModels returns the 10 classification models of §4.1.
func ClassificationModels() []*Model {
	return []*Model{
		ResNet18(), ResNet50(), ResNet101(),
		VGG11(), VGG13(), VGG16(),
		Distilbert(), BERTBase(), BERTLarge(), GPT2Medium(),
	}
}

// ByName returns a fresh instance of the named model, building only
// that model.
func ByName(name string) (*Model, error) {
	for _, z := range zoo {
		if z.name == name {
			return z.build(), nil
		}
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}
